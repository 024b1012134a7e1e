"""Test oracles for the encoders.

Image: ``encode_image_batch`` runs the conv GEMM, the rectifier, the pooling
and the moments over blocks of a few images. ``reference_encode`` is the same
forward without blocks: one GEMM over every patch column, one rectifier call
and one pooling product. It returns the patches and the slope as well, so a
test can check the encoder's moments against their definition.

Text: the mean pool as a per-row mean of embedding rows, and the table
gradient as an ``np.add.at`` scatter of each row's share: the formulation that
the bag-matrix products of ``encode_text_batch`` and ``text_backward`` replace.
"""

import numpy as np

from studyclip.encoders import (
    RECTIFIER_SLOPE,
    _conv_patches,
    _conv_weights,
    _head_backward,
    _head_forward,
    _rectify,
)


def reference_encode(params, imgs):
    """(embedding, head cache, patches (10, batch x positions), slope (batch x positions, k))."""
    imgs = np.asarray(imgs, dtype=np.float64)
    cols = _conv_patches(imgs)
    b = imgs.shape[0]
    positions = cols.shape[1] // b
    z = cols.T @ _conv_weights(params)
    slope = _rectify(z)
    pooled = np.ones(positions) @ z.reshape(b, positions, -1)
    pooled /= RECTIFIER_SLOPE * positions
    embedding, cache = _head_forward(params, pooled)
    return embedding, cache, cols, slope


def reference_encode_text(params, id_seqs):
    pooled = np.stack([params.emb[seq].mean(axis=0) for seq in id_seqs])
    return _head_forward(params, pooled)


def reference_text_backward(params, cache, id_seqs, d_emb):
    grads, d_pooled = _head_backward(params, cache, d_emb)
    d_table = np.zeros_like(params.emb)
    for row, seq in zip(d_pooled, id_seqs):
        np.add.at(d_table, seq, row / len(seq))
    grads["emb"] = d_table
    return grads
