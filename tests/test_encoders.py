import math

import numpy as np
import pytest

from studyclip.encoders import (
    CONV_BLOCK_BYTES,
    EmptySequence,
    Vocab,
    _head_forward,
    build_vocab,
    encode_image_batch,
    encode_text_batch,
    image_backward,
    init_image_params,
    init_text_params,
    text_backward,
    text_bag,
    tokenize,
)
from encoder_oracle import (
    pre_activations,
    reference_encode,
    reference_encode_text,
    reference_text_backward,
    reference_text_bag,
)
from gradcheck import finite_diff_grad, max_relative_error
from studyclip.evalrun import EVAL_CHUNK, eval_image_embeddings
from studyclip.losses import ShapeMismatch, paper_table, total_loss
from studyclip.studies import Study, StudyImage
from studyclip.training import TrainConfig, TrainedModel

TINY = TrainConfig(conv_filters=2, hidden_dim=3, feature_dim=4, token_dim=3, embed_dim=4)


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(["heart size is enlarged.", "no pneumothorax.", "lungs are clear."])


# ------------------------------------------------------------------- tokenize


def test_tokenize_known_words(vocab):
    ids = tokenize("Heart size is enlarged.", vocab)
    assert 0 not in ids
    assert len(ids) == 4


def test_tokenize_empty_gives_unk(vocab):
    assert tokenize("", vocab) == [0]
    assert tokenize("...", vocab) == [0]


def test_tokenize_oov_maps_to_unk(vocab):
    assert tokenize("zebra", vocab) == [0]


def test_vocab_deterministic_order():
    a = build_vocab(["b a a", "c b"])
    b = build_vocab(["b a a", "c b"])
    assert a.tokens == b.tokens
    # counts: a=2, b=2, c=1 -> ties alphabetical
    assert a.tokens == ["<unk>", "a", "b", "c"]


# --------------------------------------------------------------------- encode


def test_image_embedding_unit_norm_and_deterministic():
    params = init_image_params(0, TINY)
    imgs = np.random.default_rng(1).uniform(size=(1, 8, 8))
    emb1, _ = encode_image_batch(params, imgs)
    emb2, _ = encode_image_batch(params, imgs)
    assert np.linalg.norm(emb1[0]) == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_array_equal(emb1, emb2)


def test_image_shape_checked():
    params = init_image_params(0, TINY)
    with pytest.raises(ShapeMismatch):
        encode_image_batch(params, np.zeros((8, 8)))  # one image without its batch axis
    with pytest.raises(ShapeMismatch):
        encode_image_batch(params, np.zeros((1, 2, 2)))  # smaller than the 3x3 conv window


def test_text_embedding_unit_norm_and_empty_rejected(vocab):
    params = init_text_params(0, len(vocab), TINY)
    emb, _ = encode_text_batch(params, text_bag([tokenize("lungs are clear.", vocab)], len(vocab)))
    assert np.linalg.norm(emb[0]) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(EmptySequence):
        text_bag([tokenize("lungs are clear.", vocab), []], len(vocab))
    with pytest.raises(ShapeMismatch):  # a bag over another vocabulary
        encode_text_batch(params, text_bag([tokenize("lungs are clear.", vocab)], len(vocab) + 1))


def test_a_mid_gray_image_encodes_at_initialisation():
    # 0.5 shifts to 0, so every pre-activation is the conv bias: at a zero bias the relu, the head's
    # hidden and feature vectors (zero biases) and the projection would all be 0
    emb, _ = encode_image_batch(init_image_params(0, TrainConfig()), np.full((2, 32, 32), 0.5))
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, rtol=0, atol=1e-12)


def test_a_collapsed_projection_raises(vocab):
    params = init_text_params(0, len(vocab), TINY)
    params["txt.mlp_w2"][...] = 0.0  # with the zero bias, every feature and projection is 0
    with pytest.raises(FloatingPointError, match="projection collapsed"):
        encode_text_batch(params, text_bag([tokenize("lungs are clear.", vocab)], len(vocab)))


@pytest.mark.parametrize("prefix", ["img", "txt"])
def test_a_non_finite_projection_raises(vocab, prefix):
    # a NaN norm passes a check for norms <= 1e-12 alone, and a NaN embedding is never outranked
    if prefix == "img":
        params = init_image_params(0, TINY)
        params["img.conv_w"][0, 0, 0] = np.nan
        encode = lambda: encode_image_batch(params, np.random.default_rng(1).uniform(size=(2, 8, 8)))
    else:
        params = init_text_params(0, len(vocab), TINY)
        params["txt.emb"][...] = np.nan
        encode = lambda: encode_text_batch(params, text_bag([tokenize("lungs are clear.", vocab)], len(vocab)))
    with pytest.raises(FloatingPointError, match="not finite"):
        encode()


@pytest.mark.parametrize(
    "pooled, bias",
    [
        ([[0.5], [np.nan]], [0.0, 0.0]),
        ([[0.5], [0.5]], [np.inf, 0.0]),
        ([[0.5], [0.5]], [-np.inf, 0.0]),
        ([[0.5], [0.5]], [1e200, 0.0]),  # finite entries whose norm overflows
        ([[0.5], [0.0]], [0.0, 0.0]),
    ],
    ids=["nan_row", "inf", "minus_inf", "norm_overflow", "zero_row"],
)
def test_the_head_raises_on_a_non_finite_or_zero_projection_row(pooled, bias):
    # one input feature, tanh, then features h (1, 1) + bias, summed into both projected entries
    params = {"t.mlp_w1": np.ones((1, 1)), "t.mlp_b1": np.zeros(1), "t.mlp_w2": np.ones((1, 2)),
              "t.mlp_b2": np.array(bias), "t.proj": np.ones((2, 2))}
    # BLAS may flag an invalid operation on an inf input while it returns inf; squaring 1e200 overflows
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(FloatingPointError, match="projection collapsed to a zero vector or is not finite"):
            _head_forward(params, "t", np.array(pooled))
    params["t.mlp_b2"] = np.zeros(2)  # at a zero bias, non-zero inputs pass
    embedding, _ = _head_forward(params, "t", np.array([[0.5], [-0.25]]))
    np.testing.assert_allclose(np.linalg.norm(embedding, axis=1), 1.0, rtol=0, atol=1e-15)


def test_projection_dims_match_across_modalities(vocab):
    img = init_image_params(0, TINY)
    txt = init_text_params(1, len(vocab), TINY)
    assert img["img.proj"].shape[1] == txt["txt.proj"].shape[1] == TINY.embed_dim


# ----------------------------------------------------------------------- init


def test_init_deterministic_and_seed_sensitive():
    a = init_image_params(7, TINY)
    b = init_image_params(7, TINY)
    c = init_image_params(8, TINY)
    np.testing.assert_array_equal(a["img.conv_w"], b["img.conv_w"])
    assert not np.array_equal(a["img.conv_w"], c["img.conv_w"])


def test_a_numpy_integer_seed_gives_the_arrays_of_the_equal_int_seed():
    for init in (lambda seed: init_image_params(seed, TINY), lambda seed: init_text_params(seed, 5, TINY)):
        by_int, by_numpy = init(7), init(np.int64(7))
        assert list(by_int) == list(by_numpy)
        for name, arr in by_int.items():
            assert arr.tobytes() == by_numpy[name].tobytes(), name


def test_init_scale_matches_glorot_variance():
    cfg = TrainConfig(conv_filters=2, hidden_dim=200, feature_dim=300, token_dim=3, embed_dim=4)
    params = init_image_params(3, cfg)
    w = params["img.mlp_w2"]  # 200 x 300
    fan_in, fan_out = w.shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    target = bound**2 / 3.0  # variance of U(-bound, bound)
    n = w.size
    # sampling std of the variance estimate for a uniform distribution
    sigma = np.sqrt((bound**4 / 5.0 - target**2) / n)
    assert abs(np.var(w) - target) <= 3.0 * sigma


# ------------------------------------------------------------- gradient checks


FD_EPSILON = 1e-5


def assert_clear_of_the_kink(params, *image_sets):
    # A central difference is exact only while no pre-activation crosses relu's kink at 0. A step of
    # FD_EPSILON in one parameter moves a pre-activation by at most FD_EPSILON (|patch| <= 0.5, bias 1).
    for imgs in image_sets:
        _, z = pre_activations(params, imgs)
        assert np.min(np.abs(z)) > FD_EPSILON


def fd_check_image(loss_of_embedding, params, imgs, tol=1e-4):
    assert_clear_of_the_kink(params, imgs)
    emb, cache = encode_image_batch(params, imgs)
    value, d_emb = loss_of_embedding(emb)
    grads = image_backward(params, cache, d_emb)
    names = list(params)

    def scalar_fn(*arrays):
        e, _ = encode_image_batch(dict(zip(names, arrays)), imgs)
        return loss_of_embedding(e)[0]

    fd = finite_diff_grad(scalar_fn, list(params.values()), epsilon=FD_EPSILON)
    for name, fd_grad in zip(names, fd):
        assert max_relative_error(grads[name], fd_grad) <= tol, name


def quadratic_loss(target):
    def fn(emb):
        diff = emb - target
        return float(np.sum(diff**2)), 2.0 * diff

    return fn


def test_image_encoder_gradients_match_finite_differences():
    params = init_image_params(0, TINY)
    imgs = np.random.default_rng(2).uniform(size=(2, 8, 8))
    target = np.random.default_rng(3).standard_normal((2, TINY.embed_dim))
    fd_check_image(quadratic_loss(target), params, imgs)


def test_text_encoder_gradients_match_finite_differences(vocab):
    params = init_text_params(1, len(vocab), TINY)
    bag = text_bag([tokenize("heart size is enlarged.", vocab), tokenize("no pneumothorax.", vocab)], len(vocab))
    target = np.random.default_rng(4).standard_normal((2, TINY.embed_dim))
    loss = quadratic_loss(target)
    emb, cache = encode_text_batch(params, bag)
    _, d_emb = loss(emb)
    grads = text_backward(params, cache, d_emb)
    names = list(params)

    def scalar_fn(*arrays):
        e, _ = encode_text_batch(dict(zip(names, arrays)), bag)
        return loss(e)[0]

    fd = finite_diff_grad(scalar_fn, list(params.values()))
    for name, fd_grad in zip(names, fd):
        assert max_relative_error(grads[name], fd_grad) <= 1e-4, name


def views(u1, u2, v1, v2):
    return {"u1": u1, "u2": u2, "v1": v1, "v2": v2}


def test_full_pipeline_gradients_match_finite_differences(vocab):
    # total objective through both encoders, checked on every parameter block
    img_params = init_image_params(0, TINY)
    txt_params = init_text_params(1, len(vocab), TINY)
    rng = np.random.default_rng(5)
    imgs1 = rng.uniform(size=(2, 8, 8))
    imgs2 = rng.uniform(size=(2, 8, 8))
    bag1 = text_bag([tokenize("heart size is enlarged.", vocab), tokenize("lungs are clear.", vocab)], len(vocab))
    bag2 = text_bag([tokenize("no pneumothorax.", vocab), tokenize("clear lungs.", vocab)], len(vocab))
    assert_clear_of_the_kink(img_params, imgs1, imgs2)
    table = paper_table(1.0, 0.5)
    log_tau = np.array(np.log(0.3))

    img_names = list(img_params)
    txt_names = list(txt_params)

    def scalar_fn(*arrays):
        n_img = len(img_names)
        ip = dict(zip(img_names, arrays[:n_img]))
        tp = dict(zip(txt_names, arrays[n_img:-1]))
        lt = float(arrays[-1])
        v1, _ = encode_image_batch(ip, imgs1)
        v2, _ = encode_image_batch(ip, imgs2)
        u1, _ = encode_text_batch(tp, bag1)
        u2, _ = encode_text_batch(tp, bag2)
        return total_loss(views(u1, u2, v1, v2), lt, table).value

    v1, c_v1 = encode_image_batch(img_params, imgs1)
    v2, c_v2 = encode_image_batch(img_params, imgs2)
    u1, c_u1 = encode_text_batch(txt_params, bag1)
    u2, c_u2 = encode_text_batch(txt_params, bag2)
    out = total_loss(views(u1, u2, v1, v2), float(log_tau), table)
    d = out.grad_views
    img_grads = image_backward(img_params, c_v1, d["v1"])
    for name, g in image_backward(img_params, c_v2, d["v2"]).items():
        img_grads[name] = img_grads[name] + g
    txt_grads = text_backward(txt_params, c_u1, d["u1"])
    for name, g in text_backward(txt_params, c_u2, d["u2"]).items():
        txt_grads[name] = txt_grads[name] + g

    inputs = [*img_params.values(), *txt_params.values(), log_tau]
    fd = finite_diff_grad(scalar_fn, inputs, epsilon=FD_EPSILON)
    for name, fd_grad in zip(img_names, fd[: len(img_names)]):
        assert max_relative_error(img_grads[name], fd_grad) <= 1e-4, name
    for name, fd_grad in zip(txt_names, fd[len(img_names) : -1]):
        assert max_relative_error(txt_grads[name], fd_grad) <= 1e-4, name
    assert max_relative_error(np.array(out.grad_log_tau), fd[-1]) <= 1e-4


def test_backward_passes_return_exactly_the_names_and_shapes_of_their_init(vocab):
    img = init_image_params(0, TINY)
    txt = init_text_params(1, len(vocab), TINY)
    params = {**img, **txt, "log_tau": np.array(0.0)}  # each path reads its own names from the whole map
    _, img_cache = encode_image_batch(params, np.random.default_rng(2).uniform(size=(3, 8, 8)))
    _, txt_cache = encode_text_batch(params, text_bag([tokenize("lungs are clear.", vocab)], len(vocab)))
    d_emb = np.random.default_rng(3).standard_normal((3, TINY.embed_dim))
    img_grads = image_backward(params, img_cache, d_emb)
    txt_grads = text_backward(params, txt_cache, d_emb[:1])
    for grads, init in ((img_grads, img), (txt_grads, txt)):
        assert sorted(grads) == sorted(init)
        assert {name: g.shape for name, g in grads.items()} == {name: a.shape for name, a in init.items()}
    assert all(name.startswith("img.") for name in img) and all(name.startswith("txt.") for name in txt)


def test_batch_embeddings_unit_norm():
    params = init_image_params(0, TINY)
    imgs = np.random.default_rng(6).uniform(size=(5, 8, 8))
    emb, _ = encode_image_batch(params, imgs)
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-6)


def test_vocab_requires_unk_slot():
    with pytest.raises(ValueError):
        Vocab(tokens=["word"])


def test_chunked_eval_embeddings_match_one_batch():
    n = 300
    assert n > EVAL_CHUNK and n % EVAL_CHUNK
    cfg = TrainConfig(image_size=8, conv_filters=2, hidden_dim=3, feature_dim=4, token_dim=3, embed_dim=4)
    model = TrainedModel(
        config=cfg,
        vocab=Vocab(tokens=["<unk>"]),
        params={**init_image_params(0, cfg), **init_text_params(1, 1, cfg), "log_tau": np.array(math.log(0.07))},
    )
    rng = np.random.default_rng(7)
    studies = [
        Study(id=f"s{i}", images=[StudyImage(rng.uniform(size=(8, 8)))], findings="lungs are clear.")
        for i in range(n)
    ]
    chunked = eval_image_embeddings(model, studies)
    whole, _ = encode_image_batch(model.params, np.stack([s.images[0].pixels for s in studies]))
    assert chunked.shape == whole.shape
    np.testing.assert_array_equal(chunked, whole)


# ------------------------------------------------------------------- blocking

DEFAULT = TrainConfig()
# images per conv block at the default sizes: 15x15 positions of 16 filters, float64
BLOCK = CONV_BLOCK_BYTES // (15 * 15 * DEFAULT.conv_filters * 8)


@pytest.mark.parametrize("batch", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1])
def test_blocked_forward_matches_one_pass_oracle_bit_for_bit(batch):
    assert BLOCK >= 2  # so block - 1 is a batch and the cases differ
    params = init_image_params(0, DEFAULT)
    params["img.conv_b"] = np.random.default_rng(8).normal(size=DEFAULT.conv_filters)  # exercise the bias
    imgs = np.random.default_rng(batch).uniform(size=(batch, DEFAULT.image_size, DEFAULT.image_size))
    emb, cache = encode_image_batch(params, imgs)
    ref_emb, ref_cache, cols, mask = reference_encode(params, imgs)
    assert emb.tobytes() == ref_emb.tobytes()
    for name in ("pooled", "h", "feature", "projected"):
        assert cache[name].shape == ref_cache[name].shape, name
        assert cache[name].tobytes() == ref_cache[name].tobytes(), name
    # moments: per image, the mean over positions of each patch entry (and of 1) times each filter's mask
    positions = cols.shape[1] // batch
    want = np.einsum("jbp,bpk->bjk", cols.reshape(10, batch, positions), mask.reshape(batch, positions, -1))
    want /= positions
    assert cache["moments"].shape == (batch, 10, DEFAULT.conv_filters)
    # every term is at most 1 in size, so 1e-14 is about 45 units in the last place of the largest
    np.testing.assert_allclose(cache["moments"], want, rtol=0, atol=1e-14)
    active_share = mask.reshape(batch, positions, -1).mean(axis=1)
    np.testing.assert_allclose(cache["moments"][:, 9], active_share, rtol=0, atol=1e-14)


@pytest.mark.parametrize("batch", [1, 5, 32, 128])
def test_forward_only_embedding_matches_the_full_forward_bit_for_bit(batch):
    # BLOCK images per conv block: 5 ends one image into a block, 32 and 128 on a block edge
    assert BLOCK == 4
    params = init_image_params(0, DEFAULT)
    params["img.conv_b"] = np.random.default_rng(8).normal(size=DEFAULT.conv_filters)
    imgs = np.random.default_rng(batch).uniform(-50.0, 50.0, size=(batch, DEFAULT.image_size, DEFAULT.image_size))
    emb, cache = encode_image_batch(params, imgs)
    forward, forward_cache = encode_image_batch(params, imgs, with_grads=False)
    assert forward.tobytes() == emb.tobytes()
    assert "moments" in cache and "moments" not in forward_cache
    for name in ("pooled", "h", "feature", "projected"):
        assert forward_cache[name].tobytes() == cache[name].tobytes(), name


@pytest.mark.parametrize("with_grads", [True, False])
def test_strided_and_read_only_batches_encode_as_their_contiguous_copy(with_grads):
    # the window view reads the batch's strides once per call; every block, the last short one too, must use them
    batch, size = 2 * BLOCK + 1, DEFAULT.image_size
    params = init_image_params(0, DEFAULT)
    params["img.conv_b"] = np.random.default_rng(8).normal(size=DEFAULT.conv_filters)
    rng = np.random.default_rng(11)
    strided = rng.uniform(size=(2 * batch, size + 3, 2 * size + 1))[::2, 3:, 1::2]  # no axis contiguous
    assert not strided.flags.c_contiguous and strided.strides[2] != 8
    copy = np.ascontiguousarray(strided)
    read_only, strided_read_only = copy.copy(), strided.view()
    for view in (read_only, strided_read_only):
        view.flags.writeable = False  # as the training worker's slot views are
    emb, cache = encode_image_batch(params, copy, with_grads)
    for imgs in (strided, read_only, strided_read_only):
        got, got_cache = encode_image_batch(params, imgs, with_grads)
        assert got.tobytes() == emb.tobytes()
        assert sorted(got_cache) == sorted(cache)
        for name in cache:
            assert got_cache[name].tobytes() == cache[name].tobytes(), name


def test_image_cache_does_not_grow_with_image_size():
    params = init_image_params(0, DEFAULT)
    rng = np.random.default_rng(9)
    sizes = {}
    for side in (32, 64):
        _, cache = encode_image_batch(params, rng.uniform(size=(32, side, side)))
        sizes[side] = sum(a.nbytes for a in cache.values())
    assert sizes[32] == sizes[64]
    # the conv stage keeps only the moments: 32 x 10 x 16 floats, 40 KB
    assert cache["moments"].nbytes < 64 * 1024


@pytest.mark.parametrize(
    "seqs",
    [
        [[3, 3, 1, 3], [2], [0, 5, 5, 5, 5, 4], [1]],  # repeated ids in a sequence
        [[1], [4], [4], [0]],  # every sequence of length 1
    ],
    ids=["repeats", "length_one"],
)
def test_bag_matrix_text_path_matches_row_mean_oracle(seqs):
    params = init_text_params(2, 6, DEFAULT)
    d_emb = np.random.default_rng(10).standard_normal((len(seqs), DEFAULT.embed_dim))
    emb, cache = encode_text_batch(params, text_bag(seqs, 6))
    grads = text_backward(params, cache, d_emb)
    ref_emb, ref_cache = reference_encode_text(params, seqs)
    ref_grads = reference_text_backward(params, ref_cache, seqs, d_emb)
    pairs = [(cache[name], ref_cache[name]) for name in ("pooled", "h", "feature", "projected")]
    pairs += [(emb, ref_emb)] + [(grads[name], g) for name, g in ref_grads.items()]
    for got, want in pairs:
        # relative to the array's largest entry: a gradient entry can be a sum that cancels
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    with pytest.raises(EmptySequence):
        text_bag(seqs + [[]], 6)
    with pytest.raises(IndexError):  # an id past the table would land in the next row's cells
        text_bag([[0, 6], [1]], 6)


@pytest.mark.parametrize("rows", [2, 600])
def test_text_bag_matches_the_bincount_oracle_bit_for_bit(rows):
    vocab_size = 40
    rng = np.random.default_rng(rows)
    # up to 30 ids from 40: most rows repeat an id, so a cell sums 1/len more than once
    seqs = [rng.integers(0, vocab_size, size=int(rng.integers(1, 31))).tolist() for _ in range(rows)]
    seqs[0] = [0, vocab_size - 1, 0, 0, 0, 0, 0]  # both ends of the vocabulary, one id seven times
    seqs[1] = [vocab_size - 1]  # a single token
    seqs[len(seqs) // 2 :] = [[seq[0]] for seq in seqs[len(seqs) // 2 :]]  # single-token rows
    bag, want = text_bag(seqs, vocab_size), reference_text_bag(seqs, vocab_size)
    assert (bag.dtype, bag.shape) == (want.dtype, want.shape) == (np.float64, (rows, vocab_size))
    assert bag.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "seqs, error",
    [
        ([], EmptySequence),  # no sequence at all
        ([[1, 2], []], EmptySequence),
        ([[1, -1]], IndexError),  # would land in the row before
        ([[0], [5, 6]], IndexError),  # would land in the row after
    ],
    ids=["empty_batch", "empty_sequence", "negative_id", "id_past_the_vocabulary"],
)
def test_text_bag_rejects_empty_input_and_ids_outside_the_vocabulary(seqs, error):
    with pytest.raises(error):
        text_bag(seqs, 6)
