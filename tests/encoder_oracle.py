"""Test oracles for the encoders.

Image: ``encode_image_batch`` runs the conv GEMM, the relu, the pooling and
the moments over blocks of a few images. ``reference_encode`` is the same
forward without blocks: one GEMM over every patch column, one relu and one
pooling product, with the relu and its slope mask written out here. Its
patches are nine strided slices of the batch, not the encoder's window view
and buffer. It returns
the patches and the mask as well, so a test can check the encoder's moments
against their definition. ``pre_activations`` gives the conv stage's input to
the relu, so a finite-difference check can assert that no step crosses its
kink.

Text: the mean pool as a per-row mean of embedding rows, and the table
gradient as an ``np.add.at`` scatter of each row's share: the formulation that
the bag-matrix products of ``encode_text_batch`` and ``text_backward`` replace.
``reference_text_bag`` builds the bag from array conversions of the lists,
one ``np.bincount`` over row-offset ids that sums each cell in input order:
``text_bag`` must return its bytes.
"""

import numpy as np

from studyclip.encoders import IMAGE_SHIFT, _conv_weights, _head_backward, _head_forward


def conv_patches(imgs):
    """(10, batch x positions): per 3x3 window entry, a strided slice of the shifted images; then ones.

    Column b x positions + p is position p of image b.
    """
    b, height, width = imgs.shape
    out_h, out_w = (height - 1) // 2, (width - 1) // 2
    rows = [imgs[:, di : di + 2 * out_h : 2, dj : dj + 2 * out_w : 2] - IMAGE_SHIFT for di in range(3) for dj in range(3)]
    return np.vstack([row.reshape(1, -1) for row in rows] + [np.ones((1, b * out_h * out_w))])


def pre_activations(params, imgs):
    """(patches (10, batch x positions), pre-activations z (batch x positions, k))."""
    cols = conv_patches(np.asarray(imgs, dtype=np.float64))
    return cols, cols.T @ _conv_weights(params)


def reference_encode(params, imgs):
    """(embedding, head cache, patches (10, batch x positions), mask z > 0 (batch x positions, k))."""
    cols, z = pre_activations(params, imgs)
    b = len(imgs)
    positions = cols.shape[1] // b
    pooled = np.ones(positions) @ np.maximum(z, 0.0).reshape(b, positions, -1)
    pooled /= positions
    embedding, cache = _head_forward(params, "img", pooled)
    return embedding, cache, cols, (z > 0.0).astype(np.float64)


def reference_encode_text(params, id_seqs):
    pooled = np.stack([params["txt.emb"][seq].mean(axis=0) for seq in id_seqs])
    return _head_forward(params, "txt", pooled)


def reference_text_backward(params, cache, id_seqs, d_emb):
    grads, d_pooled = _head_backward(params, "txt", cache, d_emb)
    d_table = np.zeros_like(params["txt.emb"])
    for row, seq in zip(d_pooled, id_seqs):
        np.add.at(d_table, seq, row / len(seq))
    grads["txt.emb"] = d_table
    return grads


def reference_text_bag(id_seqs, vocab_size):
    lengths = np.array([len(seq) for seq in id_seqs])
    ids = np.concatenate(id_seqs)
    cells = np.repeat(np.arange(len(id_seqs)) * vocab_size, lengths) + ids
    weights = np.repeat(1.0 / lengths, lengths)
    return np.bincount(cells, weights, minlength=len(id_seqs) * vocab_size).reshape(len(id_seqs), vocab_size)
