import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import finite_diff_grad, max_relative_error
from studyclip.losses import (
    CLIP_TABLE,
    EmbeddingBatch,
    Pairing,
    ShapeMismatch,
    Temperature,
    ZeroRow,
    l2_normalize,
    l2_normalize_vjp,
    paper_table,
    total_loss,
)

LOG_1P_EXP_NEG1 = 0.3132616875182228  # log(1 + e^-1), 2x2 orthonormal case

# The paper's terms, each a table over total_loss with positional batches.
MVS_TABLE = paper_table(0.0, 0.0)[:4]
ICL_TABLE = (Pairing("v1", "v2", 1.0, "icl"),)
TCL_TABLE = (Pairing("u1", "u2", 1.0, "tcl"),)
FOUR_VIEWS = ("u1", "u2", "v1", "v2")


def clip_loss(U, V, temp):
    return total_loss({"u1": U, "v1": V}, temp, CLIP_TABLE)


def mvs_loss(U1, U2, V1, V2, temp):
    return total_loss(dict(zip(FOUR_VIEWS, (U1, U2, V1, V2))), temp, MVS_TABLE)


def icl_loss(V1, V2, temp):
    return total_loss({"v1": V1, "v2": V2}, temp, ICL_TABLE)


def tcl_loss(U1, U2, temp):
    return total_loss({"u1": U1, "u2": U2}, temp, TCL_TABLE)


def paper_loss(U1, U2, V1, V2, temp, lambda_icl=1.0, lambda_tcl=0.5):
    return total_loss(dict(zip(FOUR_VIEWS, (U1, U2, V1, V2))), temp, paper_table(lambda_icl, lambda_tcl))


# view names bound, in order, to each helper's batch arguments
ARG_VIEWS = {
    clip_loss: ("u1", "v1"),
    mvs_loss: FOUR_VIEWS,
    icl_loss: ("v1", "v2"),
    tcl_loss: ("u1", "u2"),
    paper_loss: FOUR_VIEWS,
}


def random_batch(rng, n, d, role="image"):
    return l2_normalize(rng.standard_normal((n, d)), role)


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


# ---------------------------------------------------------------- l2_normalize


def test_l2_normalize_345_triangle():
    out = l2_normalize(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(out.rows, [[0.6, 0.8]], atol=1e-15)


def test_l2_normalize_axis_vectors():
    out = l2_normalize(np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(out.rows, [[1.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_l2_normalize_random_rows_unit():
    rng = np.random.default_rng(7)
    out = l2_normalize(rng.standard_normal((4, 8)))
    np.testing.assert_allclose(np.linalg.norm(out.rows, axis=1), 1.0, atol=1e-10)


def test_l2_normalize_zero_row_raises():
    with pytest.raises(ZeroRow):
        l2_normalize(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_l2_normalize_vjp_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 5))
    g = rng.standard_normal((3, 5))

    def f(raw):
        return float(np.sum(l2_normalize(raw).rows * g))

    (fd,) = finite_diff_grad(f, [x])
    analytic = l2_normalize_vjp(x, g)
    assert max_relative_error(analytic, fd) < 1e-6


# ------------------------------------------------------------------- clip_loss


def test_clip_single_pair_is_zero():
    b = EmbeddingBatch(np.array([[1.0, 0.0]]), "text")
    for tau in (0.07, 1.0, 5.0):
        assert clip_loss(b, b, Temperature.from_tau(tau)).value == pytest.approx(0.0, abs=1e-15)


def test_clip_orthonormal_pair_value():
    U = EmbeddingBatch(np.eye(2), "text")
    V = EmbeddingBatch(np.eye(2), "image")
    out = clip_loss(U, V, Temperature.from_tau(1.0))
    assert out.value == pytest.approx(LOG_1P_EXP_NEG1, abs=1e-12)


def test_clip_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for trial in range(25):
        n = int(rng.integers(1, 33))
        d = int(rng.integers(2, 17))
        U = random_batch(rng, n, d, "text")
        V = random_batch(rng, n, d, "image")
        tau = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        got = clip_loss(U, V, Temperature.from_tau(tau)).value
        want = naive_clip_value(U.rows, V.rows, tau)
        assert abs(got - want) <= 1e-10


def test_clip_shape_mismatch():
    rng = np.random.default_rng(1)
    U = random_batch(rng, 3, 4, "text")
    V = random_batch(rng, 3, 5, "image")
    with pytest.raises(ShapeMismatch):
        clip_loss(U, V, Temperature.from_tau(1.0))


def test_clip_value_symmetric_in_roles():
    rng = np.random.default_rng(2)
    U = random_batch(rng, 5, 6, "text")
    V = random_batch(rng, 5, 6, "image")
    temp = Temperature.from_tau(0.3)
    assert clip_loss(U, V, temp).value == pytest.approx(clip_loss(V, U, temp).value, abs=1e-12)


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 8), d=st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_clip_nonnegative(seed, n, d):
    rng = np.random.default_rng(seed)
    U = random_batch(rng, n, d, "text")
    V = random_batch(rng, n, d, "image")
    tau = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
    assert clip_loss(U, V, Temperature.from_tau(tau)).value >= -1e-12


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_clip_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    n, d = 6, 5
    U = random_batch(rng, n, d, "text")
    V = random_batch(rng, n, d, "image")
    perm = rng.permutation(n)
    temp = Temperature.from_tau(0.5)
    a = clip_loss(U, V, temp).value
    b = clip_loss(EmbeddingBatch(U.rows[perm], "text"), EmbeddingBatch(V.rows[perm], "image"), temp).value
    assert abs(a - b) <= 1e-9


def test_temperature_monotonicity_at_perfect_alignment():
    # orthonormal U = V, n >= 2: loss strictly decreasing in 1/tau
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
    B = EmbeddingBatch(q, "text")
    inv_taus = [0.5, 1.0, 2.0, 4.0, 8.0]
    values = [clip_loss(B, EmbeddingBatch(q, "image"), Temperature.from_tau(1.0 / it)).value for it in inv_taus]
    for lo, hi in zip(values[:-1], values[1:]):
        assert hi < lo


# ---------------------------------------------- mvs / icl / tcl / paper table


def test_mvs_collapse_equals_clip_bitwise():
    rng = np.random.default_rng(4)
    U = random_batch(rng, 5, 8, "text")
    V = random_batch(rng, 5, 8, "image")
    temp = Temperature.from_tau(0.2)
    collapsed = mvs_loss(U, U, V, V, temp).value
    single = clip_loss(U, V, temp).value
    assert abs(collapsed - single) <= 1e-12


def test_mvs_single_pair_is_zero():
    b = EmbeddingBatch(np.array([[0.0, 1.0]]), "text")
    v = EmbeddingBatch(np.array([[1.0, 0.0]]), "image")
    assert mvs_loss(b, b, v, v, Temperature.from_tau(1.0)).value == pytest.approx(0.0, abs=1e-15)


def test_mvs_matches_sum_of_four_clip_terms():
    rng = np.random.default_rng(5)
    U1, U2 = random_batch(rng, 3, 4, "text"), random_batch(rng, 3, 4, "text")
    V1, V2 = random_batch(rng, 3, 4, "image"), random_batch(rng, 3, 4, "image")
    temp = Temperature.from_tau(0.7)
    want = (
        clip_loss(U1, V1, temp).value
        + clip_loss(U2, V1, temp).value
        + clip_loss(U1, V2, temp).value
        + clip_loss(U2, V2, temp).value
    ) / 4.0
    assert abs(mvs_loss(U1, U2, V1, V2, temp).value - want) <= 1e-12


def test_icl_orthonormal_value_and_swap_symmetry():
    V = EmbeddingBatch(np.eye(2), "image")
    temp = Temperature.from_tau(1.0)
    assert icl_loss(V, V, temp).value == pytest.approx(LOG_1P_EXP_NEG1, abs=1e-12)
    rng = np.random.default_rng(6)
    V1, V2 = random_batch(rng, 4, 5), random_batch(rng, 4, 5)
    assert icl_loss(V1, V2, temp).value == pytest.approx(icl_loss(V2, V1, temp).value, abs=1e-12)


def test_tcl_orthonormal_value_and_n1():
    U = EmbeddingBatch(np.eye(2), "text")
    assert tcl_loss(U, U, Temperature.from_tau(1.0)).value == pytest.approx(LOG_1P_EXP_NEG1, abs=1e-12)
    one = EmbeddingBatch(np.array([[1.0, 0.0]]), "text")
    assert tcl_loss(one, one, Temperature.from_tau(1.0)).value == pytest.approx(0.0, abs=1e-15)


def test_total_weighted_arithmetic():
    rng = np.random.default_rng(8)
    U1, U2 = random_batch(rng, 4, 6, "text"), random_batch(rng, 4, 6, "text")
    V1, V2 = random_batch(rng, 4, 6, "image"), random_batch(rng, 4, 6, "image")
    temp = Temperature.from_tau(0.3)
    out = paper_loss(U1, U2, V1, V2, temp, 1.0, 0.5)
    mvs = mvs_loss(U1, U2, V1, V2, temp).value
    icl = icl_loss(V1, V2, temp).value
    tcl = tcl_loss(U1, U2, temp).value
    assert out.value == mvs + 1.0 * icl + 0.5 * tcl
    assert out.components["mvs"] == mvs
    assert out.components["icl"] == icl
    assert out.components["tcl"] == tcl


@pytest.mark.parametrize("table", [paper_table(1.0, 0.5), CLIP_TABLE], ids=["paper_table", "clip_table"])
@pytest.mark.parametrize("n", [1, 7, 32])
def test_value_only_loss_matches_the_full_call_bit_for_bit(table, n):
    rng = np.random.default_rng(n)
    views = {name: random_batch(rng, n, 16, "text" if name[0] == "u" else "image") for name in FOUR_VIEWS}
    temp = Temperature.from_tau(0.05)
    full = total_loss(views, temp, table)
    value_only = total_loss(views, temp, table, with_grads=False)
    assert value_only.value.hex() == full.value.hex()
    assert {k: v.hex() for k, v in value_only.components.items()} == {k: v.hex() for k, v in full.components.items()}
    assert value_only.grad_views is None and value_only.grad_log_tau is None


def test_total_zero_weights_equals_mvs():
    rng = np.random.default_rng(9)
    U1, U2 = random_batch(rng, 3, 4, "text"), random_batch(rng, 3, 4, "text")
    V1, V2 = random_batch(rng, 3, 4, "image"), random_batch(rng, 3, 4, "image")
    temp = Temperature.from_tau(1.2)
    out = paper_loss(U1, U2, V1, V2, temp, 0.0, 0.0)
    mvs = mvs_loss(U1, U2, V1, V2, temp)
    assert out.value == mvs.value
    for name in FOUR_VIEWS:
        np.testing.assert_array_equal(out.grad_views[name], mvs.grad_views[name])
    # zero-weight rows are still evaluated, so their components stay in the log
    assert out.components["icl"] == icl_loss(V1, V2, temp).value
    assert out.components["tcl"] == tcl_loss(U1, U2, temp).value


def test_total_gradient_is_weighted_sum_of_component_gradients():
    rng = np.random.default_rng(10)
    U1, U2 = random_batch(rng, 4, 5, "text"), random_batch(rng, 4, 5, "text")
    V1, V2 = random_batch(rng, 4, 5, "image"), random_batch(rng, 4, 5, "image")
    temp = Temperature.from_tau(0.4)
    li, lt = 0.8, 0.3
    out = paper_loss(U1, U2, V1, V2, temp, li, lt)
    mvs = mvs_loss(U1, U2, V1, V2, temp)
    icl = icl_loss(V1, V2, temp)
    tcl = tcl_loss(U1, U2, temp)
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


def composed(loss_builder, num_inputs):
    """Wrap a loss so raw matrices are normalized inside, log_tau last input."""

    def f(*args):
        raws, log_tau = args[:-1], args[-1]
        batches = [l2_normalize(r) for r in raws]
        return loss_builder(*batches, Temperature(float(log_tau))).value

    return f


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
    rng = np.random.default_rng(12)
    for n, d in [(2, 4), (4, 4), (3, 6)]:
        raws = [rng.standard_normal((n, d)) for _ in range(num_batches)]
        log_tau = np.array(rng.uniform(np.log(0.1), np.log(2.0)))
        f = composed(builder, num_batches)
        fd = finite_diff_grad(f, raws + [log_tau], epsilon=1e-5)
        batches = [l2_normalize(r) for r in raws]
        out = builder(*batches, Temperature(float(log_tau)))
        for raw, name, fd_grad in zip(raws, ARG_VIEWS[builder], fd[:-1]):
            analytic = l2_normalize_vjp(raw, out.grad_views[name])
            assert max_relative_error(analytic, fd_grad) <= 1e-4
        assert max_relative_error(np.array(out.grad_log_tau), fd[-1]) <= 1e-4


def test_finite_diff_constant_function_is_zero():
    x = np.ones((2, 3))
    (g,) = finite_diff_grad(lambda a: 42.0, [x])
    np.testing.assert_array_equal(g, np.zeros_like(x))


def test_finite_diff_epsilon_bounds():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda a: 0.0, [np.ones(2)], epsilon=1e-2)


# ------------------------------------------------------------------ temperature


def test_temperature_clamp():
    assert Temperature.from_tau(50.0).clamped().tau == pytest.approx(10.0)
    assert Temperature.from_tau(1e-9).clamped().tau == pytest.approx(1e-3)
    assert Temperature.from_tau(0.07).clamped().tau == pytest.approx(0.07)


def test_temperature_rejects_nonpositive():
    with pytest.raises(ValueError):
        Temperature.from_tau(0.0)


def test_embedding_batch_rejects_non_unit_rows():
    with pytest.raises(ValueError):
        EmbeddingBatch(np.array([[1.0, 1.0]]), "image")
