import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from grainflow import (
    MobilityKind,
    MobilitySpec,
    ModelSpec,
    Potential,
    PotentialSpec,
    SolverError,
    check_a4,
    estimate_c2_norm,
    estimate_c_star,
    g_eval,
    gamma_eval,
    gamma_prox,
    grad_g,
    mobility_eval,
)
from grainflow import model as model_module
from grainflow.model import hessian_g

G1 = PotentialSpec(Potential.POLYNOMIAL)
G2 = PotentialSpec(Potential.LOGARITHMIC, o_star=0.05, iota_star=0.95)
G3 = PotentialSpec(Potential.INDICATOR)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_polynomial_is_zero_everywhere():
    assert gamma_eval(G1, 0.7) == 0.0
    assert gamma_eval(G1, -3.0) == 0.0


def test_gamma_indicator():
    assert gamma_eval(G3, 1.5) == math.inf
    assert gamma_eval(G3, 0.5) == 0.0
    assert gamma_eval(G3, 0.0) == 0.0


def test_gamma_logarithmic_values():
    # 0.5*ln(0.5) at the symmetric point; endpoint convention gamma(0)=gamma(1)=1
    assert gamma_eval(G2, 0.5) == pytest.approx(-0.34657359027997264, abs=1e-15)
    assert gamma_eval(G2, 0.0) == 1.0
    assert gamma_eval(G2, 1.0) == 1.0
    assert gamma_eval(G2, -0.1) == math.inf
    assert gamma_eval(G2, 1.1) == math.inf


def test_gamma_prox_projection_and_symmetry():
    assert gamma_prox(G3, 1.0, 1.7) == 1.0
    assert gamma_prox(G3, 1.0, -0.3) == 0.0
    assert gamma_prox(G2, 1.0, 0.5) == pytest.approx(0.5, abs=1e-13)
    assert gamma_prox(G1, 0.7, 2.5) == 2.5  # identity for the zero potential


def test_gamma_prox_logarithmic_against_bisection_oracle():
    # root of x + 0.15*ln(x/(1-x)) = 0.9 computed by an independent bisection
    lam, r = 0.3, 0.9
    f = lambda x: x + 0.5 * lam * math.log(x / (1.0 - x)) - r
    lo, hi = 1e-15, 1.0 - 1e-15
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(0.7417429207393634, abs=1e-12)
    assert gamma_prox(G2, lam, r) == pytest.approx(root, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    lam=st.floats(0.05, 10.0),
    r=st.floats(-3.0, 3.0),
    which=st.sampled_from(["g2", "g3"]),
)
def test_gamma_prox_optimality_residual(lam, r, which):
    # r - x in lam * subdiff(gamma)(x), checked through a residual <= 1e-10.
    # Keep the logit of the g2 minimizer representable in doubles (spacing
    # near 1 caps it at ~18); past that point the output saturates to the
    # nearest double with x-space error of one ulp.
    assume(which == "g3" or r <= 1.0 + 8.0 * lam)
    spec = G2 if which == "g2" else G3
    x = gamma_prox(spec, lam, r)
    if which == "g2":
        assert 0.0 < x < 1.0
        s = 0.5 * math.log(x / (1.0 - x))
        assert abs(r - x - lam * s) <= 1e-10
    else:
        s = (r - x) / lam  # implied normal-cone element
        if 0.0 < x < 1.0:
            assert abs(s) <= 1e-10
        elif x == 0.0:
            assert s <= 1e-10
        else:
            assert s >= -1e-10


def test_gamma_prox_logarithmic_keeps_2d_shape(rng):
    r = rng.uniform(-0.5, 1.5, size=(32, 32))
    x = gamma_prox(G2, 0.054, r)
    assert x.shape == (32, 32)
    assert np.all((x > 0.0) & (x < 1.0))


def test_gamma_prox_logarithmic_mixed_cells_match_scalar_calls(rng):
    # saturated cells at both ends, central cells and the exact point 0.5
    lam = 0.054
    r = np.concatenate([
        [-3.0, 1.0 + 8.0 * lam, 0.5, 0.5],
        rng.uniform(0.05, 0.95, size=60),
    ])
    rng.shuffle(r)
    x = gamma_prox(G2, lam, r)
    logit = np.log(x) - np.log1p(-x)
    # rounding x to a double moves logit(x) by up to spacing(x) / (x (1 - x)):
    # about 1e-9 at r = 1 + 8 lam, where 1 - x is near 1e-7, and negligible
    # elsewhere
    rounding = 0.5 * lam * np.spacing(x) / (x * (1.0 - x))
    assert np.all(np.abs(x + 0.5 * lam * logit - r) <= 1e-12 + rounding)
    scalar = np.array([gamma_prox(G2, lam, float(ri)) for ri in r])
    assert np.all(np.abs(x - scalar) <= 1e-13)


def test_gamma_prox_logarithmic_rejects_nan():
    with pytest.raises(SolverError, match="non-finite"):
        gamma_prox(G2, 0.054, np.array([0.2, math.nan, 0.7]))


def test_gamma_prox_logarithmic_raises_when_sweeps_run_out(monkeypatch):
    monkeypatch.setattr(model_module, "_LOG_PROX_MAX_SWEEPS", 1)
    with pytest.raises(SolverError, match="2 cells above .* after 1 sweeps"):
        gamma_prox(G2, 0.054, np.array([0.2, 0.5, 0.7]))


def test_gamma_prox_logarithmic_few_sweeps(rng, monkeypatch):
    # converged cells must leave the iteration instead of being sent back to
    # bisection; one sigmoid evaluation per sweep
    sweeps = []
    sigmoid = model_module._sigmoid

    def counting_sigmoid(s):
        sweeps.append(s.size)
        return sigmoid(s)

    monkeypatch.setattr(model_module, "_sigmoid", counting_sigmoid)
    lam = 0.054
    r = rng.uniform(0.15, 0.6, size=1024)
    x = gamma_prox(G2, lam, r)
    assert 0 < len(sweeps) <= 8
    logit = np.log(x) - np.log1p(-x)
    assert np.all(np.abs(x + 0.5 * lam * logit - r) <= 1e-12)


@pytest.mark.parametrize("lam", [0.054, 0.3])
def test_gamma_prox_logarithmic_large_inputs_converge(lam, rng):
    # at |r| of a few hundred the rounding of r alone exceeds an absolute
    # 1e-13 residual; the stopping rule scales with it
    r = np.sort(rng.uniform(-1000.0, 1000.0, size=1000))
    x = gamma_prox(G2, lam, r)
    assert np.all((x > 0.0) & (x < 1.0))
    assert np.all(np.diff(x) >= 0.0)  # the prox is monotone
    # optimality where x is a normal double below the largest one under 1
    inside = (x > np.finfo(float).tiny) & (x < np.nextafter(1.0, 0.0))
    x, r = x[inside], r[inside]
    assert x.size >= 5
    logit = np.log(x) - np.log1p(-x)
    rounding = 0.5 * lam * np.spacing(x) / (x * (1.0 - x))
    allowed = 1e-12 + 16.0 * np.finfo(float).eps * np.abs(r) + rounding
    assert np.all(np.abs(x + 0.5 * lam * logit - r) <= allowed)


@pytest.mark.parametrize("spec", [G1, G2, G3], ids=["g1", "g2", "g3"])
def test_gamma_prox_input_forms_and_fresh_output(spec):
    for r in (0.3, np.float64(0.3), np.array(0.3)):
        x = gamma_prox(spec, 0.054, r)
        assert isinstance(x, float)
        assert x == gamma_prox(spec, 0.054, np.array([0.3]))[0]
    listed = gamma_prox(spec, 0.054, [0.2, 0.7, 1.4])
    assert isinstance(listed, np.ndarray) and listed.shape == (3,)
    r = np.array([[0.2, 0.7], [-0.3, 1.4]])
    keep = r.copy()
    x = gamma_prox(spec, 0.054, r)
    assert x is not r and x.shape == r.shape
    x += 1.0
    assert np.array_equal(r, keep)


def _sigmoid_by_branch(s):
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


def compacting_log_prox(lam, r):
    """The logarithmic prox iterating on the cells not yet converged only,
    with the same sweeps as ``model._log_prox``."""
    half = 0.5 * lam
    rest = r.ravel()
    out = np.empty_like(rest)
    idx = np.arange(rest.size)
    lo, hi = (rest - 1.0) / half, rest / half
    tol = np.maximum(1e-13, 4.0 * np.finfo(float).eps * np.abs(rest))
    x0 = np.clip(rest, 5e-324, np.nextafter(1.0, 0.0))
    s = np.clip(np.log(x0) - np.log1p(-x0), lo, hi)
    for _ in range(200):
        sig = _sigmoid_by_branch(s)
        phi = sig + half * s - rest
        done = np.abs(phi) <= tol
        out[idx[done]] = sig[done]
        todo = ~done
        if not todo.any():
            return np.clip(out.reshape(r.shape), 5e-324, np.nextafter(1.0, 0.0))
        idx, s, sig, phi, rest, lo, hi, tol = (
            a[todo] for a in (idx, s, sig, phi, rest, lo, hi, tol)
        )
        lo = np.where(phi < 0, s, lo)
        hi = np.where(phi >= 0, s, hi)
        s_new = s - phi / (sig * (1.0 - sig) + half)
        bad = (s_new < lo) | (s_new > hi) | (s_new == s)
        s = np.where(bad, 0.5 * (lo + hi), s_new)
    raise AssertionError("reference prox did not converge")


@pytest.mark.parametrize("lam", [1e-3, 0.054, 10.0])
def test_log_prox_matches_compacting_reference(lam, rng):
    s = rng.normal(scale=40.0, size=200)
    assert np.array_equal(model_module._sigmoid(s), _sigmoid_by_branch(s))
    draws = [
        rng.uniform(-1000.0, 1000.0, size=300),
        rng.uniform(-0.5, 1.5, size=(12, 25)),
        np.concatenate([rng.uniform(0.0, 1.0, size=64), [0.0, 1.0, 0.5, -1e3, 1e3]]),
    ]
    for r in draws:
        x = gamma_prox(G2, lam, r)
        assert x.shape == r.shape
        assert np.array_equal(x, compacting_log_prox(lam, r))


def test_gamma_prox_rejects_nonpositive_lambda():
    for lam in (0.0, -1.0, math.nan, np.array(0.0)):
        with pytest.raises(ValueError):
            gamma_prox(G3, lam, 0.3)


# ---------------------------------------------------------------------------
# g and derivatives
# ---------------------------------------------------------------------------

def test_g_eval_examples():
    assert g_eval(G1, 0.0, 0.0) == 0.0
    assert g_eval(G1, 0.5, 0.5) == pytest.approx(0.015625, abs=1e-15)
    # centered point of the quadratic settings
    centered = PotentialSpec(Potential.LOGARITHMIC, c=1.0, u=0.0,
                             o_star=0.05, iota_star=0.95)
    assert g_eval(centered, 0.5, 0.5) == 0.0


def test_grad_g_examples():
    assert grad_g(G1, 1.0, 1.0) == (0.0, 0.0)  # well bottom is stationary
    gw, ge = grad_g(G1, 0.5, 0.0)
    assert gw == pytest.approx(0.5, abs=1e-15)
    assert ge == pytest.approx(-0.5, abs=1e-15)


@pytest.mark.parametrize("spec", [G1, G2, G3], ids=["g1", "g2", "g3"])
def test_grad_g_matches_finite_differences(spec, rng):
    pts = rng.uniform(0.0, 1.0, size=(1000, 2))
    step = 1e-6
    for w, e in pts:
        gw, ge = grad_g(spec, w, e)
        fd_w = (g_eval(spec, w + step, e) - g_eval(spec, w - step, e)) / (2 * step)
        fd_e = (g_eval(spec, w, e + step) - g_eval(spec, w, e - step)) / (2 * step)
        assert abs(fd_w - gw) <= 1e-6 * (1.0 + abs(gw))
        assert abs(fd_e - ge) <= 1e-6 * (1.0 + abs(ge))


@pytest.mark.parametrize("spec", [G1, G2], ids=["g1", "g2"])
def test_hessian_matches_finite_differences_of_grad(spec, rng):
    pts = rng.uniform(0.0, 1.0, size=(100, 2))
    step = 1e-6
    for w, e in pts:
        gww, gwe, gee = hessian_g(spec, w, e)
        fd_ww = (grad_g(spec, w + step, e)[0] - grad_g(spec, w - step, e)[0]) / (2 * step)
        fd_we = (grad_g(spec, w, e + step)[0] - grad_g(spec, w, e - step)[0]) / (2 * step)
        fd_ee = (grad_g(spec, w, e + step)[1] - grad_g(spec, w, e - step)[1]) / (2 * step)
        assert abs(fd_ww - gww) <= 1e-5 * (1.0 + abs(gww))
        assert abs(fd_we - gwe) <= 1e-5
        assert abs(fd_ee - gee) <= 1e-5


# ---------------------------------------------------------------------------
# mobilities
# ---------------------------------------------------------------------------

KOB = MobilitySpec(MobilityKind.KOBAYASHI, kappa=0.0)
KOB_SAFE = MobilitySpec(MobilityKind.KOBAYASHI, kappa=0.02)
CONST = MobilitySpec(MobilityKind.CONSTANT, a0=1.0, a=1.0, b=1.0)


def test_mobility_original_values():
    a0, a, b, _, _ = mobility_eval(KOB, 1.0, 1.0)
    assert a == 0.5 and b == 0.5 and a0 == 0.5


def test_mobility_constant():
    a0, a, b, ga, gb = mobility_eval(CONST, 0.3, -2.0)
    assert (a0, a, b) == (1.0, 1.0, 1.0)
    assert float(ga[0]) == 0.0 and float(gb[1]) == 0.0


def test_mobility_safeguard_floor():
    a0, a, b, _, _ = mobility_eval(KOB_SAFE, 0.0, 0.0)
    assert a0 == a == b == 0.01
    assert KOB_SAFE.delta1 == 0.01
    assert KOB_SAFE.delta0 == 0.01
    assert KOB.delta1 == 0.0  # unsafeguarded: outside theorem hypotheses


def test_mobility_gradients_match_finite_differences(rng):
    pts = rng.uniform(-1.0, 2.0, size=(300, 2))
    step = 1e-6
    for w, e in pts:
        _, a_p, b_p, ga, gb = mobility_eval(KOB_SAFE, w, e)
        fd_aw = (mobility_eval(KOB_SAFE, w + step, e)[1]
                 - mobility_eval(KOB_SAFE, w - step, e)[1]) / (2 * step)
        fd_ae = (mobility_eval(KOB_SAFE, w, e + step)[1]
                 - mobility_eval(KOB_SAFE, w, e - step)[1]) / (2 * step)
        fd_bw = (mobility_eval(KOB_SAFE, w + step, e)[2]
                 - mobility_eval(KOB_SAFE, w - step, e)[2]) / (2 * step)
        assert abs(fd_aw - float(ga[0])) <= 1e-8 * (1.0 + abs(float(ga[0])))
        assert abs(fd_ae - float(ga[1])) <= 1e-8 * (1.0 + abs(float(ga[1])))
        assert abs(fd_bw - float(gb[0])) <= 1e-8 * (1.0 + abs(float(gb[0])))


@pytest.mark.parametrize("nu", [0.0, 0.1])
@pytest.mark.parametrize("spec", [KOB_SAFE, CONST], ids=["kobayashi", "constant"])
def test_add_gradient_terms_matches_mobility_eval(spec, nu, rng):
    w, e, q1 = rng.uniform(-0.5, 1.5, size=(3, 40))
    q2 = nu * q1**2 if nu else None
    gw, ge = rng.normal(size=(2, 40))
    _, _, _, ga, gb = mobility_eval(spec, w, e)
    want_w, want_e = gw + q1 * ga[0], ge + q1 * ga[1]
    if q2 is not None:
        want_w, want_e = want_w + q2 * gb[0], want_e + q2 * gb[1]
    spec.add_gradient_terms(q1, q2, w, e, gw, ge, np.empty(40))
    assert np.array_equal(gw, want_w) and np.array_equal(ge, want_e)


def test_mobility_nonnegative_and_midpoint_convex(rng):
    for _ in range(1000):
        p = rng.uniform(-2.0, 3.0, size=2)
        q = rng.uniform(-2.0, 3.0, size=2)
        mid = 0.5 * (p + q)
        for spec in (KOB_SAFE, CONST):
            _, ap, bp, _, _ = mobility_eval(spec, *p)
            _, aq, bq, _, _ = mobility_eval(spec, *q)
            _, am, bm, _, _ = mobility_eval(spec, *mid)
            assert ap >= 0 and bp >= 0
            assert am <= 0.5 * (ap + aq) + 1e-12
            assert bm <= 0.5 * (bp + bq) + 1e-12


def test_delta_star_is_sup_of_beta():
    assert KOB_SAFE.delta_star(1.0) == pytest.approx(0.51)
    assert CONST.delta_star(1.0) == 1.0


# ---------------------------------------------------------------------------
# C2 norm and c*
# ---------------------------------------------------------------------------

def test_c2_norm_coupling_only_limit():
    # c -> 0: only the coupling (w - eta)^2/2 remains; its Hessian
    # [[1,-1],[-1,1]] has spectral norm 2, which dominates value and gradient
    spec = PotentialSpec(Potential.POLYNOMIAL, c=1e-12)
    assert estimate_c2_norm(spec) == pytest.approx(2.0, rel=1e-9)


def test_c2_norm_logarithmic_analytic():
    # quadratic g: constant Hessian [[0,-1],[-1,1]], spectral norm (1+sqrt5)/2,
    # larger than the value/gradient maxima on the box
    assert estimate_c2_norm(G2) == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-12)


def test_c2_norm_polynomial_analytic():
    # Hessian sup at w in {0,1}: spectral norm of [[1.5,-1],[-1,1]]
    expected = (2.5 + math.sqrt(4.25)) / 2.0
    assert estimate_c2_norm(G1) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("c", [0.5, 1.0, 10.0])
def test_c2_norm_sampling_converged(c):
    spec = PotentialSpec(Potential.POLYNOMIAL, c=c)
    coarse = estimate_c2_norm(spec, samples=401)
    fine = estimate_c2_norm(spec, samples=801)
    assert abs(fine - coarse) <= 1e-3 * fine


@pytest.mark.parametrize("samples", [2, 17, 401])
@pytest.mark.parametrize("spec", [G1, G2, G3], ids=["g1", "g2", "g3"])
def test_constants_do_not_depend_on_the_lattice_blocks(spec, samples, monkeypatch):
    # the lattice is sampled a few rows at a time; one block of every row is
    # the dense evaluation, and both must agree bit for bit
    def constants():
        return [estimate_c2_norm(spec, samples).hex(), estimate_c_star(spec, samples).hex()]

    chunked = constants()
    monkeypatch.setattr(model_module, "_LATTICE_ROWS", samples)
    assert constants() == chunked


@pytest.mark.parametrize("samples", [0, 1])
@pytest.mark.parametrize("estimate", [estimate_c2_norm, estimate_c_star])
def test_constants_need_a_2x2_lattice(estimate, samples):
    with pytest.raises(ValueError, match="need at least a 2x2 sampling lattice"):
        estimate(G1, samples)


@pytest.mark.parametrize("spec", [G1, G2, G3], ids=["g1", "g2", "g3"])
def test_c_star_lower_bounds_double_well(spec, rng):
    c_star = estimate_c_star(spec)
    pts = rng.uniform(0.0, 1.0, size=(10_000, 2))
    vals = gamma_eval(spec, pts[:, 0]) + g_eval(spec, pts[:, 0], pts[:, 1])
    # lattice sampling may miss the exact minimizer by O(resolution^2)
    assert float(vals.min()) >= c_star - 1e-4


# ---------------------------------------------------------------------------
# assumption (A4)
# ---------------------------------------------------------------------------

def test_a4_indicator_with_original_mobilities():
    model = ModelSpec(G3, MobilitySpec(MobilityKind.KOBAYASHI, kappa=0.0))
    assert check_a4(model).passed


def test_a4_polynomial_passes_with_equality():
    model = ModelSpec(G1, MobilitySpec(MobilityKind.KOBAYASHI, kappa=1e-2))
    report = check_a4(model)
    assert report.passed
    by_name = {c.name: c for c in report.conditions}
    assert by_name["subdiff(gamma)(o*) meets (-inf, -g_w(o*,0)]"].margin == 0.0


def test_a4_corner_mobility_signs_vanish_at_origin():
    model = ModelSpec(G1, MobilitySpec(MobilityKind.KOBAYASHI, kappa=1e-2))
    by_name = {c.name: c for c in check_a4(model).conditions}
    assert by_name["alpha_eta(o*,0) <= 0"].margin == 0.0
    assert by_name["beta_w(o*,0) <= 0"].margin == 0.0


def test_a4_logarithmic_needs_constant_mobilities():
    # beta_w(o*, 0) = o* > 0 breaks the sign table for the quadratic beta
    bad = ModelSpec(G2, MobilitySpec(MobilityKind.KOBAYASHI, kappa=1e-2))
    assert not check_a4(bad).passed
    good = ModelSpec(G2, CONST)
    assert check_a4(good).passed


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_potential_spec_invariants():
    with pytest.raises(ValueError):
        PotentialSpec(Potential.POLYNOMIAL, c=0.0)
    with pytest.raises(ValueError):
        PotentialSpec(Potential.POLYNOMIAL, o_star=0.7, iota_star=0.3)
    with pytest.raises(ValueError):
        PotentialSpec(Potential.LOGARITHMIC)  # o* = 0 not in D(subdiff gamma)


def test_mobility_spec_invariants():
    with pytest.raises(ValueError):
        MobilitySpec(MobilityKind.KOBAYASHI, kappa=-1.0)
    with pytest.raises(ValueError):
        MobilitySpec(MobilityKind.CONSTANT, a0=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_specs_reject_non_finite_fields(bad):
    for field in ("c", "u", "o_star", "iota_star"):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            PotentialSpec(Potential.POLYNOMIAL, **{field: bad})
    for kind in MobilityKind:
        for field in ("kappa", "a0", "a", "b"):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                MobilitySpec(kind, **{field: bad})


def test_tokens_round_trip():
    assert Potential.from_token("g2") is Potential.LOGARITHMIC
    assert MobilityKind.from_token("Kobayashi") is MobilityKind.KOBAYASHI
    with pytest.raises(ValueError):
        Potential.from_token("g9")
