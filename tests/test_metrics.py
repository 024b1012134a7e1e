import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from studyclip.losses import ShapeMismatch
from studyclip.metrics import (
    RANK_BLOCK,
    auc_exact,
    recall_at_k,
    zero_shot_binary,
    zero_shot_multiclass,
)


def brute_force_ranks(sims: np.ndarray, rows=None) -> np.ndarray:
    """Rank of each image's own row: the other rows scoring at least as high. Image i's row is i by default."""
    rows = range(len(sims)) if rows is None else rows
    return np.array([np.count_nonzero(np.delete(sims[i], r) >= sims[i, r]) for i, r in enumerate(rows)])


def brute_force_auc(scores, labels) -> float:
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


# The rank rule changed on purpose: image i's rank was the rows scoring higher than its pair plus the rows
# before i scoring the same, so a repeated text counted each earlier copy against every later image naming it.
# It is now the other rows scoring at least as high, whatever their order. The tests of the index rule
# (all-tied ranks 0..n-1, the 2**24 bound of the float32 weights) went with it. Distinct rows with a row
# index no longer rank as one gathered row per image, whose copies would now count against each other: the
# block, gathered-row, unnamed-row and block-product tests below check the new rule.


def assert_rows_rank_by_the_rule_in_any_row_order(images: np.ndarray, texts: np.ndarray, rows=None) -> None:
    """Rows plus each image's row index (by default the texts' distinct rows) rank as the rule says, with a
    uint64 index too, and as the named rows gathered in first-seen order, as ``encode_texts`` gathers a test
    set's texts: which row a text gets moves no rank."""
    if rows is None:
        texts, rows = np.unique(texts, axis=0, return_inverse=True)
        rows = rows.reshape(-1)
    ranks = recall_at_k(images, texts, ks=(1,), text_rows=rows).ranks
    np.testing.assert_array_equal(ranks, brute_force_ranks(images @ texts.T, rows))
    assert recall_at_k(images, texts, ks=(1,), text_rows=rows.astype(np.uint64)).ranks.tobytes() == ranks.tobytes()
    gathered = np.array(list(dict.fromkeys(rows.tolist())))
    new_row = np.empty(len(texts), dtype=np.intp)
    new_row[gathered] = np.arange(len(gathered))
    assert recall_at_k(images, texts[gathered], ks=(1,), text_rows=new_row[rows]).ranks.tobytes() == ranks.tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_recall_with_tied_similarities_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 40))
    # small integer embeddings give integer similarities with many ties
    images = rng.integers(-1, 2, size=(n, 3)).astype(np.float64)
    texts = rng.integers(-1, 2, size=(n, 3)).astype(np.float64)
    ranks = brute_force_ranks(images @ texts.T)
    result = recall_at_k(images, texts)
    np.testing.assert_array_equal(result.ranks, ranks)
    assert result.recalls == {k: float(np.mean(ranks < k)) for k in (1, 5, 10)}
    assert_rows_rank_by_the_rule_in_any_row_order(images, texts)


@pytest.mark.parametrize("n", [RANK_BLOCK - 1, RANK_BLOCK, RANK_BLOCK + 1])
def test_blocked_ranks_match_the_full_matrix_on_ties(n):
    rng = np.random.default_rng(n)
    # values rounded to halves make exact similarities; repeated rows make ties across blocks
    images = np.round(2.0 * rng.normal(size=(n, 3))) / 2.0
    texts = np.round(2.0 * rng.normal(size=(n, 3))) / 2.0
    images[n // 2 :] = images[: n - n // 2]
    texts[n // 2 :] = texts[: n - n // 2]
    sims = images @ texts.T
    assert np.count_nonzero(sims == np.diag(sims)[:, None]) > n  # other rows tie the pair, and count against it
    expected = brute_force_ranks(sims)
    result = recall_at_k(images, texts)
    np.testing.assert_array_equal(result.ranks, expected)
    assert result.recalls == {k: float(np.mean(expected < k)) for k in (1, 5, 10)}
    assert_rows_rank_by_the_rule_in_any_row_order(images, texts)


def test_blocked_ranks_match_the_full_matrix_with_repeated_texts_in_every_block():
    # a test set's size, its texts drawn from 556 distinct rows: copies of each image's text in every block
    n, distinct = 2000, 556
    rng = np.random.default_rng(3)
    images = np.round(2.0 * rng.normal(size=(n, 8))) / 2.0
    rows = np.concatenate([np.arange(distinct), rng.integers(distinct, size=n - distinct)])
    texts = (np.round(2.0 * rng.normal(size=(distinct, 8))) / 2.0)[rng.permutation(rows)]
    sims = images @ texts.T
    ties = np.count_nonzero(sims == np.diag(sims)[:, None], axis=1) > 1
    for start in range(0, n, RANK_BLOCK):
        assert ties[start : start + RANK_BLOCK].any()  # a tie with another row in every block
    np.testing.assert_array_equal(recall_at_k(images, texts).ranks, brute_force_ranks(sims))
    assert_rows_rank_by_the_rule_in_any_row_order(images, texts)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_distinct_rows_rank_as_brute_force_with_rows_that_no_image_names(data):
    # small integer embeddings make exact similarities with many ties; one row, and maybe others, is named by none
    n, m, d = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3))
    images = data.draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-2, 2))).astype(np.float64)
    texts = data.draw(hnp.arrays(np.int64, (m + 1, d), elements=st.integers(-2, 2))).astype(np.float64)
    unnamed = data.draw(st.integers(0, m))
    rows = data.draw(hnp.arrays(np.intp, n, elements=st.integers(0, m - 1)))
    rows += rows >= unnamed
    expected = brute_force_ranks(images @ texts.T, rows)
    np.testing.assert_array_equal(recall_at_k(images, texts, ks=(1,), text_rows=rows).ranks, expected)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_permuting_the_images_and_relabelling_the_rows_leaves_every_recall_bit_identical(data):
    # half-step embeddings make exact similarities with many ties, so no order can round one differently
    n, m, d = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3))
    images = data.draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-3, 3))) / 2.0
    texts = data.draw(hnp.arrays(np.int64, (m, d), elements=st.integers(-3, 3))) / 2.0
    rows = data.draw(hnp.arrays(np.intp, n, elements=st.integers(0, m - 1)))
    order = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
    relabel = np.array(data.draw(st.permutations(range(m))), dtype=np.intp)  # old row r is new row relabel[r]
    ks = tuple(range(1, m + 1))
    result = recall_at_k(images, texts, ks=ks, text_rows=rows)
    moved_texts = np.empty_like(texts)
    moved_texts[relabel] = texts
    moved = recall_at_k(images[order], moved_texts, ks=ks, text_rows=relabel[rows[order]])
    assert moved.ranks.tobytes() == result.ranks[order].tobytes()
    assert [r.hex() for r in moved.recalls.values()] == [r.hex() for r in result.recalls.values()]
    assert moved.rsum.hex() == result.rsum.hex()


@pytest.mark.parametrize("n", [RANK_BLOCK - 1, RANK_BLOCK, RANK_BLOCK + 1, 2000])
def test_distinct_rows_with_a_row_index_rank_as_the_gathered_rows(n):
    # the gathered rows are the named rows in first-seen order, as encode_texts gathers them; they were one row
    # per image under the index rule. A test set's share of distinct texts (556 of 2,000), each named at least
    # twice, in random order
    rng = np.random.default_rng(n)
    distinct = n * 556 // 2000
    rows = rng.permutation(np.arange(n) % distinct)
    rows[::RANK_BLOCK] = 1  # in every block, an image names row 1 ...
    texts = np.round(2.0 * rng.normal(size=(distinct, 4))) / 2.0
    texts[1] = texts[0]  # ... which embeds as row 0 does: the same sentences in another order, a second row
    images = np.round(2.0 * rng.normal(size=(n, 4))) / 2.0  # halves: exact similarities, many ties
    assert np.bincount(rows).min() >= 2 and rows[0] != 0  # gathering reorders the rows
    assert_rows_rank_by_the_rule_in_any_row_order(images, texts, rows)
    assert (recall_at_k(images, texts, ks=(1,), text_rows=rows).ranks[::RANK_BLOCK] >= 1).all()  # row 0 ties row 1
    # the same namings with no tie but each pair's own. Steps of 2^-16 keep every similarity exact: a matrix
    # product may round a column at its edge in another order than the others.
    images, texts = (np.round(65536.0 * rng.normal(size=x.shape)) / 65536.0 for x in (images, texts))
    sims = images @ texts.T
    assert np.count_nonzero(sims == sims[np.arange(n), rows][:, None]) == n
    assert_rows_rank_by_the_rule_in_any_row_order(images, texts, rows)


@pytest.mark.parametrize("seed", range(60))
def test_repeated_rows_rank_by_the_block_products_in_the_callers_row_order(seed):
    # a matrix product may round the columns at its edge in another order than the others, so whether two equal
    # rows tie depends on where they stand: ranking a reordering of the rows breaks or makes ties that the
    # caller's order does not have. Images are ranked RANK_BLOCK at a time, and a block's product need not round
    # as the same rows of the whole product do, so the expected similarities come from the same block products.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(300, 1201))
    m = int(rng.integers(n // 4, n + 1))
    texts = rng.normal(size=(m, 64))
    texts[2::3] = texts[1::3][: len(texts[2::3])]  # every third row a copy of the row before it
    images = rng.normal(size=(n, 64))
    rows = rng.permutation(np.arange(n) % m)  # every row named
    g = np.vstack([images[s : s + RANK_BLOCK] @ texts.T for s in range(0, n, RANK_BLOCK)])
    own = g[np.arange(n), rows][:, None]
    expected = np.count_nonzero(g >= own, axis=1) - 1
    np.testing.assert_array_equal(recall_at_k(images, texts, ks=(1,), text_rows=rows).ranks, expected)


@pytest.mark.parametrize("tied_block", [None, 1])
def test_blocked_ranks_match_the_full_matrix_without_ties(tied_block):
    n = 2 * RANK_BLOCK + 5
    rng = np.random.default_rng(7)
    images, texts = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
    if tied_block is not None:  # one pair of equal rows inside the second block; the others have none
        start = tied_block * RANK_BLOCK
        texts[start + 9] = texts[start + 2]
    sims = images @ texts.T
    ties = np.count_nonzero(sims == np.diag(sims)[:, None]) - n
    assert ties == (0 if tied_block is None else 2)  # images start + 2 and start + 9 each tie the other's row
    expected = brute_force_ranks(sims)
    np.testing.assert_array_equal(recall_at_k(images, texts).ranks, expected)


def test_a_perfect_encoder_over_repeated_texts_scores_r_at_1_of_1():
    # every image names one of 4 texts, each named by 5 images, and embeds as its text: index-based
    # ranking would count the earlier copies against each later image
    rows = np.arange(20) % 4
    texts = np.eye(4)
    result = recall_at_k(texts[rows], texts, ks=(1, 4), text_rows=rows)
    np.testing.assert_array_equal(result.ranks, np.zeros(20))
    assert result.recalls == {1: 1.0, 4: 1.0}


@pytest.mark.parametrize("m", [2, 3, 12])
def test_a_constant_encoder_scores_r_at_1_of_0_with_two_rows_or_more(m):
    # every embedding equal: every row ties every image's own, and ties count against the image
    result = recall_at_k(np.ones((12, 2)), np.ones((m, 2)), ks=(1, m), text_rows=np.arange(12) % m)
    np.testing.assert_array_equal(result.ranks, np.full(12, m - 1))
    assert result.recalls == {1: 0.0, m: 1.0}
    assert recall_at_k(np.ones((12, 2)), np.ones((1, 2)), ks=(1,), text_rows=np.zeros(12, np.intp)).recalls == {1: 1.0}


def test_recall_rejects_embeddings_whose_similarities_can_overflow():
    # finite embeddings whose similarity overflows: row 0's own pair sums +inf and -inf
    # products, which gives NaN or +inf depending on how the matrix product adds partial sums
    d = 32
    images, texts = np.zeros((3, d)), np.zeros((3, d))
    images[0] = 1e200
    texts[0] = np.where(np.arange(d) % 2 == 0, 1e200, -1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite((images @ texts.T)[0, 0])
    with pytest.raises(ValueError, match="similarities can overflow"):
        recall_at_k(images, texts, ks=(1,))
    # the largest that cannot overflow still ranks, with every similarity finite
    scale = np.sqrt(np.finfo(float).max / (2 * d))
    np.testing.assert_array_equal(recall_at_k(scale * np.eye(d), scale * np.eye(d), ks=(1,)).ranks, np.zeros(d))


@pytest.mark.parametrize("side", ["images", "texts"])
def test_recall_rejects_non_finite_embeddings(side):
    # a NaN pair is never outranked (``sims > diag`` is false), so every rank would read 0
    images, texts = np.eye(3), np.eye(3)
    (images if side == "images" else texts)[1, 0] = np.nan
    with pytest.raises(ValueError, match="embeddings must be finite"):
        recall_at_k(images, texts, ks=(1,))


@pytest.mark.parametrize("distinct", [2000, 556])
def test_ranking_memory_is_bounded_by_the_block(distinct):
    n = 2000
    rng = np.random.default_rng(0)
    images, texts = rng.normal(size=(n, 64)), rng.normal(size=(distinct, 64))
    # every text once, or a test set's repeats: 2,000 texts naming 556 distinct rows
    text_rows = None if distinct == n else rng.permutation(np.arange(n) % distinct)
    tracemalloc.start()
    try:
        recall_at_k(images, texts, text_rows=text_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the n x n similarity matrix alone is 32 MB; three blocks of it are 12.3 MB
    assert peak < 3 * RANK_BLOCK * n * 8


@pytest.mark.parametrize(
    "images, texts, ks, message",
    [
        (np.eye(3), np.eye(3), (1, 4), r"every K must be <= 3"),
        (np.eye(3), np.eye(4)[:3], (1,), r"aligned embedding matrices required, got \(3, 3\) and \(3, 4\)"),
        (np.eye(3), np.eye(3)[:2], (1,), r"got \(3, 3\) and \(2, 3\)"),
        (np.ones(3), np.ones(3), (1,), r"got \(3,\) and \(3,\)"),
    ],
)
def test_recall_rejects_a_k_above_n_and_misaligned_matrices(images, texts, ks, message):
    with pytest.raises(ShapeMismatch, match=message):
        recall_at_k(images, texts, ks)


@pytest.mark.parametrize(
    "text_rows, message",
    [
        ([0, 1], r"text_rows must be one integer row index per image, 3 in all, got int\d+ \(2,\)"),
        ([[0, 1, 2]], r"text_rows must be one integer row index per image, 3 in all, got int\d+ \(1, 3\)"),
        ([0.0, 1.0, 1.0], r"text_rows must be one integer row index per image, 3 in all, got float64 \(3,\)"),
        ([0, 1, 2], r"text_rows must lie in \[0, 2\), got 0 to 2"),
        ([1, -1, 0], r"text_rows must lie in \[0, 2\), got -1 to 1"),
    ],
)
def test_recall_rejects_text_rows_of_the_wrong_length_or_out_of_range_naming_them(text_rows, message):
    with pytest.raises(ShapeMismatch, match=message):
        recall_at_k(np.eye(3), np.eye(3)[:2], (1,), text_rows=np.array(text_rows))


@pytest.mark.parametrize("k", [0, -1, 1.5, 2.0, "1"])
def test_recall_rejects_a_k_that_is_not_an_integer_from_1_naming_it(k):
    with pytest.raises(ShapeMismatch, match=rf"every K must be an integer >= 1, got K={k!r}"):
        recall_at_k(np.eye(3), np.eye(3), (1, k))


def test_recall_accepts_numpy_integer_ks():
    assert recall_at_k(np.eye(3), np.eye(3), (np.int64(1), np.int32(3))).recalls == {1: 1.0, 3: 1.0}


def test_recall_bounds_k_by_the_rows_not_the_images():
    # a rank lies in [0, m): a K above the m rows would read 1 whatever the ranking
    rows = np.array([0, 1, 1])
    with pytest.raises(ShapeMismatch, match=r"every K must be <= 2, got K=3"):
        recall_at_k(np.eye(3), np.eye(3)[:2], (1, 3), text_rows=rows)
    assert recall_at_k(np.eye(3), np.eye(3)[:2], (1, 2), text_rows=rows).recalls == {1: 2 / 3, 2: 1.0}


def test_recall_rejects_no_images():
    # no rank to average: every recall would read NaN
    with pytest.raises(ShapeMismatch, match="no images to rank"):
        recall_at_k(np.ones((0, 2)), np.ones((3, 2)), (1,), text_rows=np.zeros(0, np.intp))


@pytest.mark.parametrize("seed", range(20))
def test_auc_with_ties_matches_brute_force_pair_count(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 60))
    scores = np.round(rng.normal(size=n), int(rng.integers(0, 2)))
    labels = rng.integers(0, 2, size=n)
    labels[:2] = (0, 1)
    assert auc_exact(scores, labels) == brute_force_auc(scores, labels)


def mid_rank_auc(scores, labels) -> float:
    """U as the positives' rank sum minus n_pos (n_pos + 1) / 2, over the 1-based mid-ranks of tied groups."""
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    u = float(np.sum(ranks[labels == 1])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@pytest.mark.parametrize("case", ["heavy_ties", "all_tied", "one_positive"])
@pytest.mark.parametrize("n", [2, 100, 2000])
def test_auc_matches_the_mid_rank_formula_bit_for_bit(n, case):
    rng = np.random.default_rng(n)
    scores = rng.integers(-3, 4, size=n) / 4.0  # seven distinct values
    labels = rng.integers(0, 2, size=n)
    labels[:2] = (0, 1)
    if case == "all_tied":
        scores[:] = 0.25
    elif case == "one_positive":
        labels[:] = 0
        labels[n // 2] = 1
    assert auc_exact(scores, labels).hex() == mid_rank_auc(scores, labels).hex()


def test_auc_rejects_non_finite_scores():
    # a sort puts the NaN last, so it would outscore both negatives: AUC 0.5 here
    with pytest.raises(ValueError, match="scores must be finite"):
        auc_exact(np.array([np.nan, 0.2, 0.1, 0.3]), np.array([1, 0, 1, 0]))


@pytest.mark.parametrize("side", ["images", "classes"])
def test_zero_shot_multiclass_rejects_non_finite_embeddings(side):
    # argmax takes a NaN for the maximum: on the diagonal it reads as a correct prediction, ACC 1.0
    images, classes = np.eye(3), np.eye(3)
    (images if side == "images" else classes)[1, 1] = np.nan
    with pytest.raises(ValueError, match="embeddings must be finite"):
        zero_shot_multiclass(images, classes, np.array([0, 1, 2]))


def test_zero_shot_multiclass_rejects_finite_embeddings_whose_similarities_overflow():
    # +-1e200 entries give inf - inf = NaN against class 0, which argmax would take for the maximum: ACC 1.0
    d = 4
    images = np.full((3, d), 1e200)
    classes = np.eye(2, d)
    classes[0] = np.where(np.arange(d) % 2 == 0, 1e200, -1e200)
    with pytest.raises(ValueError, match="embeddings must be finite"):
        zero_shot_multiclass(images, classes, np.array([0, 0, 0]))


def test_zero_shot_multiclass_is_the_share_of_correct_predictions():
    classes = np.eye(3)
    # predictions 0, 1, 2, 1 (tie between 1 and 2), 0 (three-way tie), 2
    images = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1], [0, 0, 1]], dtype=np.float64)
    labels = np.array([0, 1, 1, 1, 2, 2])
    assert zero_shot_multiclass(images, classes, labels) == 4 / 6


@pytest.mark.parametrize("label, accuracy", [(0, 1.0), (1, 0.0), (2, 0.0)])
def test_zero_shot_multiclass_ties_go_to_the_lowest_class(label, accuracy):
    assert zero_shot_multiclass(np.ones((1, 3)), np.eye(3), np.array([label])) == accuracy


@pytest.mark.parametrize(
    "images, classes, labels",
    [
        (np.ones((2, 3)), np.ones((1, 3)), [0, 0]),  # one class
        (np.ones((2, 3)), np.eye(4)[:2], [0, 1]),  # embedding dims differ
        (np.ones((2, 3)), np.eye(3), [0, 3]),
        (np.ones((2, 3)), np.eye(3), [-1, 0]),
        (np.ones((2, 3)), np.eye(3), [0]),  # one label for two images
    ],
)
def test_zero_shot_multiclass_rejects_inconsistent_shapes(images, classes, labels):
    with pytest.raises(ShapeMismatch):
        zero_shot_multiclass(images, classes, np.array(labels))


@pytest.mark.parametrize(
    "images, classes",
    [
        (np.ones(3), np.eye(3)),  # one image without its batch axis
        (np.ones((2, 3)), np.ones(3)),  # one class prompt without its class axis
        (np.ones((2, 3, 4)), np.eye(3)),  # a stack of image batches
    ],
    ids=["1d_images", "1d_classes", "3d_images"],
)
def test_zero_shot_multiclass_rejects_embeddings_that_are_not_matrices(images, classes):
    with pytest.raises(ShapeMismatch, match="embedding matrices required"):
        zero_shot_multiclass(images, classes, np.array([0, 1]))


def test_zero_shot_multiclass_rejects_labels_that_are_not_integers():
    # cast to int, [0.7, 1.2] would read as [0, 1] and score every prediction correct
    with pytest.raises(ShapeMismatch, match="labels must be integer class indices"):
        zero_shot_multiclass(np.eye(2), np.eye(2), np.array([0.7, 1.2]))


@pytest.mark.parametrize("seed", range(5))
def test_zero_shot_binary_is_the_auc_of_the_prompt_score_difference(seed):
    rng = np.random.default_rng(seed)
    images, pos, neg = rng.normal(size=(30, 4)), rng.normal(size=4), rng.normal(size=4)
    labels = np.arange(30) % 2
    assert zero_shot_binary(images, pos, neg, labels) == auc_exact(images @ pos - images @ neg, labels)


@pytest.mark.parametrize("n_labels", [3, 5])
def test_misaligned_labels_raise_shape_mismatch(n_labels):
    rng = np.random.default_rng(0)
    images, pos, neg = rng.normal(size=(4, 3)), rng.normal(size=3), rng.normal(size=3)
    labels = np.arange(n_labels) % 2
    with pytest.raises(ShapeMismatch, match=rf"\(4,\) scores but labels of shape \({n_labels},\)"):
        auc_exact(images @ pos, labels)
    with pytest.raises(ShapeMismatch, match=rf"\(4,\) scores but labels of shape \({n_labels},\)"):
        zero_shot_binary(images, pos, neg, labels)


@pytest.mark.parametrize(
    "pos_dim, neg_dim, message",
    [
        (4, 3, r"embedding dims differ: images \(2, 3\) vs positive prompt \(4,\)"),
        (3, 2, r"embedding dims differ: images \(2, 3\) vs negative prompt \(2,\)"),
    ],
)
def test_zero_shot_binary_rejects_a_prompt_of_another_dimension_naming_both(pos_dim, neg_dim, message):
    with pytest.raises(ShapeMismatch, match=message):
        zero_shot_binary(np.ones((2, 3)), np.ones(pos_dim), np.ones(neg_dim), np.array([0, 1]))


@pytest.mark.parametrize(
    "labels, scores, value",
    [([1, 0, -1], [0.3, 0.2, 0.1], -1), ([2, 1, 0], [0.1, 0.2, 0.3], 2), ([1, 0, 0.5], [0.3, 0.2, 0.1], 0.5)],
)
def test_labels_other_than_0_and_1_raise_shape_mismatch_naming_the_allowed_values(labels, scores, value):
    with pytest.raises(ShapeMismatch, match=rf"labels must be 0 or 1, got \[{value}\]"):
        auc_exact(np.array(scores), np.array(labels))
    with pytest.raises(ShapeMismatch, match=r"labels must be 0 or 1"):
        zero_shot_binary(np.eye(3), np.array(scores), np.zeros(3), np.array(labels))
