"""Test oracle for the image encoder: the conv stage as one pass over the batch.

``encode_image_batch`` runs the conv GEMM, the rectifier and the pooling over
blocks of a few images. This is the same forward without blocks: one GEMM
over every patch row, one rectifier call and one pooling product. The blocked
encoder must return the same bits, in its embeddings and in its cache.
"""

import numpy as np

from studyclip.encoders import IMAGE_SHIFT, RECTIFIER_SLOPE, _conv_patches, _head_forward, _rectify


def reference_encode(params, imgs):
    imgs = np.asarray(imgs, dtype=np.float64)
    cols = _conv_patches(imgs - IMAGE_SHIFT)
    b, out_h, out_w, _ = cols.shape
    cols = cols.reshape(-1, 9)
    k = params.conv_w.shape[0]
    z = cols @ (params.conv_w.reshape(k, 9).T * RECTIFIER_SLOPE)
    z += params.conv_b * RECTIFIER_SLOPE
    slope = _rectify(z)
    positions = out_h * out_w
    pooled = np.ones(positions) @ z.reshape(b, positions, k)
    pooled /= RECTIFIER_SLOPE * positions
    embedding, cache = _head_forward(params, pooled)
    cache.update({"cols": cols, "slope": slope})
    return embedding, cache
