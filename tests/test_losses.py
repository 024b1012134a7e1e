import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import finite_diff_grad, max_relative_error
from studyclip.encoders import _head_backward, _head_forward
from studyclip.losses import CLIP_TABLE, Pairing, ShapeMismatch, paper_table, total_loss

LOG_1P_EXP_NEG1 = 0.3132616875182228  # log(1 + e^-1), 2x2 orthonormal case

# The paper's terms, each a table over total_loss with positional batches and log(tau).
MVS_TABLE = paper_table(0.0, 0.0)[:4]
ICL_TABLE = (Pairing("v1", "v2", 1.0, "icl"),)
TCL_TABLE = (Pairing("u1", "u2", 1.0, "tcl"),)
FOUR_VIEWS = ("u1", "u2", "v1", "v2")


def clip_loss(U, V, log_tau):
    return total_loss({"u1": U, "v1": V}, log_tau, CLIP_TABLE)


def mvs_loss(U1, U2, V1, V2, log_tau):
    return total_loss(dict(zip(FOUR_VIEWS, (U1, U2, V1, V2))), log_tau, MVS_TABLE)


def icl_loss(V1, V2, log_tau):
    return total_loss({"v1": V1, "v2": V2}, log_tau, ICL_TABLE)


def tcl_loss(U1, U2, log_tau):
    return total_loss({"u1": U1, "u2": U2}, log_tau, TCL_TABLE)


def paper_loss(U1, U2, V1, V2, log_tau, lambda_icl=1.0, lambda_tcl=0.5):
    return total_loss(dict(zip(FOUR_VIEWS, (U1, U2, V1, V2))), log_tau, paper_table(lambda_icl, lambda_tcl))


# view names bound, in order, to each helper's batch arguments
ARG_VIEWS = {
    clip_loss: ("u1", "v1"),
    mvs_loss: FOUR_VIEWS,
    icl_loss: ("v1", "v2"),
    tcl_loss: ("u1", "u2"),
    paper_loss: FOUR_VIEWS,
}


def random_batch(rng, n, d):
    """n random unit rows of d dims, as an encoder gives them."""
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def naive_clip_value(u, v, tau):
    # Independent oracle: explicit logit matrix, explicit log-sum-exp, loops.
    n = u.shape[0]
    logits = [[float(np.dot(u[i], v[j])) / tau for j in range(n)] for i in range(n)]
    total = 0.0
    for i in range(n):
        row = logits[i]
        m = max(row)
        lse = m + math.log(sum(math.exp(x - m) for x in row))
        total += lse - row[i]
    for j in range(n):
        col = [logits[i][j] for i in range(n)]
        m = max(col)
        lse = m + math.log(sum(math.exp(x - m) for x in col))
        total += lse - col[j]
    return total / (2 * n)


# ------------------------------------------- the encoder head's l2 normalization
# The loss takes its rows as unit-norm; the shared encoder head is what makes them so.


def head_params(w1, b1, w2, b2, proj):
    return SimpleNamespace(mlp_w1=w1, mlp_b1=b1, mlp_w2=w2, mlp_b2=np.asarray(b2, dtype=float), proj=proj)


def random_head_params(rng, sizes=(5, 6, 7, 4)):
    pooled, hidden, feature, embed = sizes
    return head_params(
        rng.standard_normal((pooled, hidden)),
        rng.standard_normal(hidden),
        rng.standard_normal((hidden, feature)),
        rng.standard_normal(feature),
        rng.standard_normal((feature, embed)),
    )


def test_l2_normalize_345_triangle():
    # zero perceptron weights: the projected row is the feature bias, (3, 4)
    params = head_params(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 2)), [3.0, 4.0], np.eye(2))
    emb, _ = _head_forward(params, np.ones((1, 1)))
    np.testing.assert_allclose(emb, [[0.6, 0.8]], atol=1e-15)


def test_l2_normalize_axis_vectors():
    # identity weights: the projected rows are (tanh 1, 0) and (0, tanh 2)
    eye = np.eye(2)
    emb, _ = _head_forward(head_params(eye, np.zeros(2), eye, np.zeros(2), eye), np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(emb, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_l2_normalize_random_rows_unit():
    rng = np.random.default_rng(7)
    emb, cache = _head_forward(random_head_params(rng), rng.standard_normal((4, 5)))
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-10)
    # each row divided by its own norm
    np.testing.assert_allclose(emb * np.linalg.norm(cache["projected"], axis=1, keepdims=True), cache["projected"])


def test_l2_normalize_vjp_matches_finite_differences():
    # the projection's gradient is the feature times the normalization's VJP at the projected rows
    rng = np.random.default_rng(11)
    params = random_head_params(rng)
    pooled = rng.standard_normal((3, 5))
    g = rng.standard_normal((3, 4))

    def f(proj):
        emb, _ = _head_forward(SimpleNamespace(**{**vars(params), "proj": proj}), pooled)
        return float(np.sum(emb * g))

    (fd,) = finite_diff_grad(f, [params.proj])
    _, cache = _head_forward(params, pooled)
    grads, _ = _head_backward(params, cache, g)
    assert max_relative_error(grads["proj"], fd) < 1e-6


# ------------------------------------------------------------------- clip_loss


def test_clip_single_pair_is_zero():
    b = np.array([[1.0, 0.0]])
    for tau in (0.07, 1.0, 5.0):
        assert clip_loss(b, b, math.log(tau)).value == pytest.approx(0.0, abs=1e-15)


def test_clip_orthonormal_pair_value():
    U = np.eye(2)
    V = np.eye(2)
    out = clip_loss(U, V, math.log(1.0))
    assert out.value == pytest.approx(LOG_1P_EXP_NEG1, abs=1e-12)


def test_clip_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for trial in range(25):
        n = int(rng.integers(1, 33))
        d = int(rng.integers(2, 17))
        U = random_batch(rng, n, d)
        V = random_batch(rng, n, d)
        tau = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        got = clip_loss(U, V, math.log(tau)).value
        want = naive_clip_value(U, V, tau)
        assert abs(got - want) <= 1e-10


def test_clip_shape_mismatch():
    rng = np.random.default_rng(1)
    U = random_batch(rng, 3, 4)
    V = random_batch(rng, 3, 5)
    with pytest.raises(ShapeMismatch):
        clip_loss(U, V, math.log(1.0))
    with pytest.raises(ShapeMismatch):  # one shape, but not a matrix of rows
        clip_loss(U[0], U[1], math.log(1.0))


def test_clip_value_symmetric_in_roles():
    rng = np.random.default_rng(2)
    U = random_batch(rng, 5, 6)
    V = random_batch(rng, 5, 6)
    log_tau = math.log(0.3)
    assert clip_loss(U, V, log_tau).value == pytest.approx(clip_loss(V, U, log_tau).value, abs=1e-12)


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 8), d=st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_clip_nonnegative(seed, n, d):
    rng = np.random.default_rng(seed)
    U = random_batch(rng, n, d)
    V = random_batch(rng, n, d)
    tau = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
    assert clip_loss(U, V, math.log(tau)).value >= -1e-12


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_clip_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    n, d = 6, 5
    U = random_batch(rng, n, d)
    V = random_batch(rng, n, d)
    perm = rng.permutation(n)
    log_tau = math.log(0.5)
    a = clip_loss(U, V, log_tau).value
    b = clip_loss(U[perm], V[perm], log_tau).value
    assert abs(a - b) <= 1e-9


def test_temperature_monotonicity_at_perfect_alignment():
    # orthonormal U = V, n >= 2: loss strictly decreasing in 1/tau
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
    B = q
    inv_taus = [0.5, 1.0, 2.0, 4.0, 8.0]
    values = [clip_loss(B, q, math.log(1.0 / it)).value for it in inv_taus]
    for lo, hi in zip(values[:-1], values[1:]):
        assert hi < lo


# ---------------------------------------------- mvs / icl / tcl / paper table


def test_mvs_collapse_equals_clip_bitwise():
    rng = np.random.default_rng(4)
    U = random_batch(rng, 5, 8)
    V = random_batch(rng, 5, 8)
    log_tau = math.log(0.2)
    collapsed = mvs_loss(U, U, V, V, log_tau).value
    single = clip_loss(U, V, log_tau).value
    assert abs(collapsed - single) <= 1e-12


def test_mvs_single_pair_is_zero():
    b = np.array([[0.0, 1.0]])
    v = np.array([[1.0, 0.0]])
    assert mvs_loss(b, b, v, v, math.log(1.0)).value == pytest.approx(0.0, abs=1e-15)


def test_mvs_matches_sum_of_four_clip_terms():
    rng = np.random.default_rng(5)
    U1, U2 = random_batch(rng, 3, 4), random_batch(rng, 3, 4)
    V1, V2 = random_batch(rng, 3, 4), random_batch(rng, 3, 4)
    log_tau = math.log(0.7)
    want = (
        clip_loss(U1, V1, log_tau).value
        + clip_loss(U2, V1, log_tau).value
        + clip_loss(U1, V2, log_tau).value
        + clip_loss(U2, V2, log_tau).value
    ) / 4.0
    assert abs(mvs_loss(U1, U2, V1, V2, log_tau).value - want) <= 1e-12


def test_icl_orthonormal_value_and_swap_symmetry():
    V = np.eye(2)
    log_tau = math.log(1.0)
    assert icl_loss(V, V, log_tau).value == pytest.approx(LOG_1P_EXP_NEG1, abs=1e-12)
    rng = np.random.default_rng(6)
    V1, V2 = random_batch(rng, 4, 5), random_batch(rng, 4, 5)
    assert icl_loss(V1, V2, log_tau).value == pytest.approx(icl_loss(V2, V1, log_tau).value, abs=1e-12)


def test_tcl_orthonormal_value_and_n1():
    U = np.eye(2)
    assert tcl_loss(U, U, math.log(1.0)).value == pytest.approx(LOG_1P_EXP_NEG1, abs=1e-12)
    one = np.array([[1.0, 0.0]])
    assert tcl_loss(one, one, math.log(1.0)).value == pytest.approx(0.0, abs=1e-15)


def test_total_weighted_arithmetic():
    rng = np.random.default_rng(8)
    U1, U2 = random_batch(rng, 4, 6), random_batch(rng, 4, 6)
    V1, V2 = random_batch(rng, 4, 6), random_batch(rng, 4, 6)
    log_tau = math.log(0.3)
    out = paper_loss(U1, U2, V1, V2, log_tau, 1.0, 0.5)
    mvs = mvs_loss(U1, U2, V1, V2, log_tau).value
    icl = icl_loss(V1, V2, log_tau).value
    tcl = tcl_loss(U1, U2, log_tau).value
    assert out.value == mvs + 1.0 * icl + 0.5 * tcl
    assert out.components["mvs"] == mvs
    assert out.components["icl"] == icl
    assert out.components["tcl"] == tcl


@pytest.mark.parametrize("table", [paper_table(1.0, 0.5), CLIP_TABLE], ids=["paper_table", "clip_table"])
@pytest.mark.parametrize("n", [1, 7, 32])
def test_value_only_loss_matches_the_full_call_bit_for_bit(table, n):
    rng = np.random.default_rng(n)
    views = {name: random_batch(rng, n, 16) for name in FOUR_VIEWS}
    log_tau = math.log(0.05)
    full = total_loss(views, log_tau, table)
    value_only = total_loss(views, log_tau, table, with_grads=False)
    assert value_only.value.hex() == full.value.hex()
    assert {k: v.hex() for k, v in value_only.components.items()} == {k: v.hex() for k, v in full.components.items()}
    assert value_only.grad_views is None and value_only.grad_log_tau is None


def test_total_zero_weights_equals_mvs():
    rng = np.random.default_rng(9)
    U1, U2 = random_batch(rng, 3, 4), random_batch(rng, 3, 4)
    V1, V2 = random_batch(rng, 3, 4), random_batch(rng, 3, 4)
    log_tau = math.log(1.2)
    out = paper_loss(U1, U2, V1, V2, log_tau, 0.0, 0.0)
    mvs = mvs_loss(U1, U2, V1, V2, log_tau)
    assert out.value == mvs.value
    for name in FOUR_VIEWS:
        np.testing.assert_array_equal(out.grad_views[name], mvs.grad_views[name])
    # zero-weight rows are still evaluated, so their components stay in the log
    assert out.components["icl"] == icl_loss(V1, V2, log_tau).value
    assert out.components["tcl"] == tcl_loss(U1, U2, log_tau).value


def test_total_gradient_is_weighted_sum_of_component_gradients():
    rng = np.random.default_rng(10)
    U1, U2 = random_batch(rng, 4, 5), random_batch(rng, 4, 5)
    V1, V2 = random_batch(rng, 4, 5), random_batch(rng, 4, 5)
    log_tau = math.log(0.4)
    li, lt = 0.8, 0.3
    out = paper_loss(U1, U2, V1, V2, log_tau, li, lt)
    mvs = mvs_loss(U1, U2, V1, V2, log_tau)
    icl = icl_loss(V1, V2, log_tau)
    tcl = tcl_loss(U1, U2, log_tau)
    want = {
        "u1": mvs.grad_views["u1"] + lt * tcl.grad_views["u1"],
        "u2": mvs.grad_views["u2"] + lt * tcl.grad_views["u2"],
        "v1": mvs.grad_views["v1"] + li * icl.grad_views["v1"],
        "v2": mvs.grad_views["v2"] + li * icl.grad_views["v2"],
    }
    for name, expect in want.items():
        assert max_relative_error(out.grad_views[name], expect) <= 1e-12
    assert out.grad_log_tau == pytest.approx(
        mvs.grad_log_tau + li * icl.grad_log_tau + lt * tcl.grad_log_tau, rel=1e-12
    )


# ------------------------------------------------------------- gradient checks


@pytest.mark.parametrize(
    "builder,num_batches",
    [
        (clip_loss, 2),
        (mvs_loss, 4),
        (icl_loss, 2),
        (tcl_loss, 2),
        (paper_loss, 4),
    ],
)
def test_analytic_gradients_match_finite_differences(builder, num_batches):
    # the value is a smooth function of any rows, unit-norm or not, so grad_views is its exact gradient
    rng = np.random.default_rng(12)
    for n, d in [(2, 4), (4, 4), (3, 6)]:
        rows = [random_batch(rng, n, d) for _ in range(num_batches)]
        log_tau = np.array(rng.uniform(np.log(0.1), np.log(2.0)))
        fd = finite_diff_grad(lambda *args: builder(*args[:-1], float(args[-1])).value, rows + [log_tau])
        out = builder(*rows, float(log_tau))
        for name, fd_grad in zip(ARG_VIEWS[builder], fd[:-1]):
            assert max_relative_error(out.grad_views[name], fd_grad) <= 1e-4
        assert max_relative_error(np.array(out.grad_log_tau), fd[-1]) <= 1e-4


def test_finite_diff_constant_function_is_zero():
    x = np.ones((2, 3))
    (g,) = finite_diff_grad(lambda a: 42.0, [x])
    np.testing.assert_array_equal(g, np.zeros_like(x))


def test_finite_diff_epsilon_bounds():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda a: 0.0, [np.ones(2)], epsilon=1e-2)
